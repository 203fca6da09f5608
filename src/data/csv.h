// Minimal CSV I/O so users can load their own tables (the public-API path a
// downstream adopter of the library would use instead of the generators).
#ifndef ISRL_DATA_CSV_H_
#define ISRL_DATA_CSV_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace isrl {

/// Reads a numeric CSV into a dataset. `has_header` = true consumes the first
/// line as attribute names. Every data row must have the same number of
/// numeric fields; malformed input yields an error Status.
Result<Dataset> ReadCsv(const std::string& path, bool has_header = true,
                        char sep = ',');

}  // namespace isrl

#endif  // ISRL_DATA_CSV_H_
