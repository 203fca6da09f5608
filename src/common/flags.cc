#include "common/flags.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"

namespace isrl {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  double v = default_value;
  return ParseDouble(it->second, &v) ? v : default_value;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  // Checked parse instead of atoll: "--rounds=abc" must fall back to the
  // default rather than silently becoming 0.
  std::string digits = it->second;
  bool negative = false;
  if (!digits.empty() && (digits[0] == '-' || digits[0] == '+')) {
    negative = digits[0] == '-';
    digits = digits.substr(1);
  }
  uint64_t magnitude = 0;
  if (!ParseUint64(digits, &magnitude) ||
      magnitude > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return default_value;
  }
  const int64_t value = static_cast<int64_t>(magnitude);
  return negative ? -value : value;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Status Flags::RequireKnown(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument("unknown flag: --" + key);
    }
  }
  return Status::Ok();
}

}  // namespace isrl
