// isrl_e2e — the end-to-end serving benchmark (see ../README.md).
//
//   isrl_e2e [--workload NAME] [--seed N] [--seconds 15] [--trace 0|1]
//            [--smoke] [--allow-debug] [--tmp-root DIR] [--git-sha SHA]
//
// Prints a provenance header, one `workload metric value unit` line per
// metric, and, as the last line, the run's JSON result. Exits non-zero on
// any correctness failure.
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/strings.h"
#include "e2e.h"
#include "report.h"
#include "traced.h"
#include "workload.h"

namespace isrl::e2e {
namespace {

constexpr uint64_t kDefaultSeed = 9176;
/// The run length the workloads are sized for: BENCHMARK.json's
/// run_seconds, which the benchmark's caller passes back as --seconds.
constexpr uint64_t kRunSeconds = 15;
/// Every run must end well inside the 180 s a single invocation may take.
constexpr unsigned kWatchdogSeconds = 170;

struct Args {
  std::string workload;  ///< empty = every workload
  uint64_t seed = kDefaultSeed;
  bool trace = false;
  bool smoke = false;
  bool allow_debug = false;
  std::string tmp_root = ".";
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "isrl_e2e: %s\nusage: isrl_e2e [--workload NAME] [--seed N] "
               "[--seconds %llu] [--trace 0|1] [--smoke] [--allow-debug] "
               "[--tmp-root DIR] [--git-sha SHA]\n",
               error.c_str(), static_cast<unsigned long long>(kRunSeconds));
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto next = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = next();
      if (FindWorkload(args.workload) == nullptr) {
        Usage("unknown workload '" + args.workload + "'");
      }
    } else if (arg == "--seed") {
      if (!ParseUint64(next(), &args.seed)) Usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      uint64_t seconds = 0;
      if (!ParseUint64(next(), &seconds) || seconds != kRunSeconds) {
        Usage(Format("--seconds must be %llu, the run length the workloads "
                     "are sized for",
                     static_cast<unsigned long long>(kRunSeconds)));
      }
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--allow-debug") {
      args.allow_debug = true;
    } else if (arg == "--tmp-root") {
      args.tmp_root = next();
    } else if (arg == "--git-sha") {
      args.git_sha = next();
    } else {
      Usage("unknown argument '" + arg + "'");
    }
  }
  return args;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default:
      return Format("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

void PrintProvenance(const Args& args, const std::string& tmp_dir) {
#ifdef NDEBUG
  const char* ndebug = "yes";
#else
  const char* ndebug = "no";
#endif
#ifdef ISRL_AUDIT_ENABLED
  const char* audit_compiled = "yes";
#else
  const char* audit_compiled = "no";
#endif
  const char* audit_env = std::getenv("ISRL_AUDIT");  // NOLINT(concurrency-mt-unsafe)
  std::printf("# isrl end-to-end serving benchmark\n");
  std::printf("# nproc=%ld compiler=\"%s\" build_type=%s NDEBUG=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), ISRL_E2E_COMPILER,
              ISRL_E2E_BUILD_TYPE, ndebug);
  std::printf("# audit compiled-in=%s ISRL_AUDIT=%s\n", audit_compiled,
              audit_env == nullptr ? "(unset)" : audit_env);
  std::printf("# git=%s seed=%llu shards=%zu mode=%s\n",
              args.git_sha.c_str(), static_cast<unsigned long long>(args.seed),
              kShards,
              args.smoke ? "smoke" : (args.trace ? "traced" : "end-to-end"));
  std::printf("# tmp=%s filesystem=%s\n", tmp_dir.c_str(),
              FilesystemOf(tmp_dir).c_str());
  std::fflush(stdout);
}

/// The per-run scratch directory for durable files; removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& root) {
    path_ = Format("%s/isrl-e2e.%ld", root.c_str(), static_cast<long>(getpid()));
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    if (!std::filesystem::create_directories(path_, ec)) {
      std::fprintf(stderr, "isrl_e2e: cannot create %s: %s\n", path_.c_str(),
                   ec.message().c_str());
      std::exit(2);
    }
    path_ = std::filesystem::canonical(path_).string();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// --smoke: every workload at the smoke profile, both modes, and the
/// traced outcomes compared with the end-to-end ones.
bool RunSmoke(const Args& args, const std::string& tmp_dir) {
  bool ok = true;
  for (const Workload& full : Workloads()) {
    const Workload w = SmokeProfile(full);
    Report e2e_report(w.name);
    const std::vector<Outcome> e2e = RunEndToEnd(w, args.seed, tmp_dir, e2e_report);
    Report traced_report(w.name);
    const std::vector<Outcome> traced =
        RunTraced(w, args.seed, tmp_dir, traced_report);
    CheckIdentical(e2e, traced, "traced vs end-to-end", traced_report);
    std::printf("%s\n%s\n", e2e_report.Json().c_str(),
                traced_report.Json().c_str());
    ok = ok && e2e_report.correct() && traced_report.correct();
  }
  std::printf("# smoke: %s\n", ok ? "all checks passed" : "CHECKS FAILED");
  return ok;
}

/// Runs one workload in this process; returns its exit status.
int RunWorkload(const Workload& w, const Args& args, const std::string& tmp_dir) {
  Report report(w.name);
  if (args.trace) {
    RunTraced(w, args.seed, tmp_dir, report);
  } else {
    RunEndToEnd(w, args.seed, tmp_dir, report);
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
#ifndef NDEBUG
  if (!args.allow_debug) {
    std::fprintf(stderr,
                 "isrl_e2e: refusing to report metrics from a non-Release "
                 "build (NDEBUG is not defined); rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release or pass --allow-debug\n");
    return 2;
  }
#endif
  TempDir tmp(args.tmp_root);
  PrintProvenance(args, tmp.path());
  if (args.smoke) {
    alarm(kWatchdogSeconds);
    return RunSmoke(args, tmp.path()) ? 0 : 1;
  }
  if (!args.workload.empty()) {
    alarm(kWatchdogSeconds);
    return RunWorkload(*FindWorkload(args.workload), args, tmp.path());
  }
  // Every workload in a child process of its own: peak_rss_mb is the
  // process's high-water mark, so a shared process would report the
  // largest workload so far for all that follow it.
  bool ok = true;
  for (const Workload& w : Workloads()) {
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("isrl_e2e: fork");
      return 2;
    }
    if (pid == 0) {
      alarm(kWatchdogSeconds);
      _exit(RunWorkload(w, args, tmp.path()));  // the parent owns tmp
    }
    int status = 0;
    const bool reaped = waitpid(pid, &status, 0) == pid;
    ok = ok && reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace isrl::e2e

int main(int argc, char** argv) { return isrl::e2e::Main(argc, argv); }
