#include "serve/render.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/text_io.hpp"

namespace mpsim::serve {

std::string profile_to_csv(const mp::MatrixProfileResult& result) {
  // Plain appends, no worst-case reserve: pre-sizing costs peak RSS
  // (docs/DESIGN.md, "CSV I/O").
  std::string out;
  for (std::size_t k = 0; k < result.dims; ++k) {
    if (k != 0) out += ',';
    out += "profile_";
    append_int(out, std::int64_t(k));
    out += ",index_";
    append_int(out, std::int64_t(k));
  }
  out += '\n';
  for (std::size_t j = 0; j < result.segments; ++j) {
    for (std::size_t k = 0; k < result.dims; ++k) {
      if (k != 0) out += ',';
      append_double(out, result.at(j, k));
      out += ',';
      append_int(out, result.index_at(j, k));
    }
    out += '\n';
  }
  return out;
}

void write_profile_csv(const std::string& path,
                       const mp::MatrixProfileResult& result) {
  std::ofstream out(path, std::ios::binary);
  MPSIM_CHECK(out.good(), "cannot open '" << path << "' for writing");
  const std::string csv = profile_to_csv(result);
  out.write(csv.data(), std::streamsize(csv.size()));
  MPSIM_CHECK(out.good(), "write to '" << path << "' failed");
}

}  // namespace mpsim::serve
