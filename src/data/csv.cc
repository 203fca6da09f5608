#include "data/csv.h"

#include <fstream>

#include "common/strings.h"

namespace isrl {

Result<Dataset> ReadCsv(const std::string& path, bool has_header, char sep) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);

  std::string line;
  std::vector<std::string> names;
  if (has_header) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("empty file: " + path);
    }
    for (const std::string& field : Split(Trim(line), sep)) {
      names.push_back(Trim(field));
    }
  }

  std::vector<Vec> points;
  size_t dim = names.size();
  size_t line_no = has_header ? 1 : 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::vector<std::string> fields = Split(trimmed, sep);
    if (dim == 0) dim = fields.size();
    if (fields.size() != dim) {
      return Status::InvalidArgument(
          Format("%s:%zu: expected %zu fields, got %zu", path.c_str(), line_no,
                 dim, fields.size()));
    }
    Vec p(dim);
    for (size_t c = 0; c < dim; ++c) {
      if (!ParseDouble(fields[c], &p[c])) {
        return Status::InvalidArgument(
            Format("%s:%zu: field %zu is not numeric: '%s'", path.c_str(),
                   line_no, c, fields[c].c_str()));
      }
    }
    points.push_back(std::move(p));
  }
  if (points.empty()) return Status::InvalidArgument("no data rows: " + path);

  Dataset out(std::move(points));
  if (!names.empty()) out.set_attribute_names(std::move(names));
  return out;
}

}  // namespace isrl
