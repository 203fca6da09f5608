// Minimal --key=value command-line flag parsing for the tools and benches.
#ifndef ISRL_COMMON_FLAGS_H_
#define ISRL_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace isrl {

/// Parsed command line: --key=value / --key value pairs plus positional
/// arguments. Unknown flags are kept (callers validate against their own
/// set via RequireKnown).
class Flags {
 public:
  /// Parses argv. Values use the unambiguous "--key=value" form; a bare
  /// "--flag" stores "true". Anything else is positional.
  static Flags Parse(int argc, const char* const* argv);

  std::string GetString(const std::string& key,
                        const std::string& default_value = "") const;
  double GetDouble(const std::string& key, double default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  bool GetBool(const std::string& key, bool default_value = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Error when any parsed flag is not in `known` (catches typos).
  Status RequireKnown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace isrl

#endif  // ISRL_COMMON_FLAGS_H_
