#include "tsdata/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/error.hpp"
#include "common/text_io.hpp"

namespace mpsim {
namespace {

// The blanks strtod skips in front of a number (isspace in the C locale);
// the same set may trail a number in a cell.
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// strtod on a NUL-terminated copy of [b, e): strtod reads up to a NUL,
// and a cell ends at a ',' or a line break it would skip as a blank.
// Returns the end of the number, or nullptr when there is none.
const char* strtod_cell(const char* b, const char* e, double& v) {
  const std::string cell(b, e);
  char* end = nullptr;
  v = std::strtod(cell.c_str(), &end);
  return end == cell.c_str() ? nullptr : b + (end - cell.c_str());
}

// Parses the cell [b, e) as strtod would read it, then allows trailing
// blanks only.  from_chars reads every cell it agrees with strtod on; the
// rest go to strtod, so each cell keeps the value strtod gives it: a
// leading blank or '+', a hex float, a NaN (strtod keeps "nan(n)"'s
// payload), and an out-of-range value (strtod rounds to inf or to zero).
bool parse_cell(const char* b, const char* e, double& v) {
  const char* digits = b != e && *b == '-' ? b + 1 : b;
  const bool hex = e - digits >= 2 && digits[0] == '0' &&
                   (digits[1] == 'x' || digits[1] == 'X');
  const char* end = nullptr;
  if (b != e && (is_blank(*b) || *b == '+' || hex)) {
    end = strtod_cell(b, e, v);
  } else {
    const auto res = std::from_chars(b, e, v);
    if (res.ec == std::errc::invalid_argument) return false;
    end = res.ec == std::errc() && v == v ? res.ptr : strtod_cell(b, e, v);
  }
  if (end == nullptr) return false;
  while (end != e && is_blank(*end)) ++end;
  return end == e;
}

const char* find(const char* b, const char* e, char c) {
  const void* hit = std::memchr(b, c, std::size_t(e - b));
  return hit == nullptr ? e : static_cast<const char*>(hit);
}

}  // namespace

void write_csv(const std::string& path, const TimeSeries& series,
               bool header) {
  std::ofstream out(path, std::ios::binary);
  MPSIM_CHECK(out.good(), "cannot open '" << path << "' for writing");
  // Rows go out in ~64 KiB chunks, so memory stays flat in the length.
  constexpr std::size_t kChunk = std::size_t(1) << 16;
  std::string buf;
  if (header) {
    for (std::size_t k = 0; k < series.dims(); ++k) {
      if (k != 0) buf += ',';
      buf += "dim";
      append_int(buf, std::int64_t(k));
    }
    buf += '\n';
  }
  for (std::size_t t = 0; t < series.length(); ++t) {
    for (std::size_t k = 0; k < series.dims(); ++k) {
      if (k != 0) buf += ',';
      append_double(buf, series.at(t, k));
    }
    buf += '\n';
    if (buf.size() >= kChunk) {
      out.write(buf.data(), std::streamsize(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), std::streamsize(buf.size()));
  MPSIM_CHECK(out.good(), "write to '" << path << "' failed");
}

TimeSeries read_csv(const std::string& path) {
  const auto text = read_file(path);
  MPSIM_CHECK(text.has_value(), "cannot open '" << path << "' for reading");
  return parse_csv(*text, path);
}

TimeSeries parse_csv(std::string_view text, const std::string& source) {
  std::vector<double> values;  // row-major; transposed once at the end
  std::size_t dims = 0;
  std::size_t line_no = 0;
  const char* const text_end = text.data() + text.size();
  for (const char* line = text.data(); line != text_end;) {
    const char* line_end = find(line, text_end, '\n');
    const char* const next = line_end == text_end ? text_end : line_end + 1;
    ++line_no;
    // Lines split on '\n' only; the '\r' of a CRLF file is dropped so
    // blank lines are recognised and the last cell does not carry it.
    if (line_end != line && line_end[-1] == '\r') --line_end;
    if (line_end == line) {
      line = next;
      continue;
    }
    const std::size_t cells =
        std::size_t(std::count(line, line_end, ',')) + 1;
    if (dims == 0) {
      dims = cells;
      double ignored = 0.0;
      if (!parse_cell(line, find(line, line_end, ','), ignored)) {
        line = next;  // header
        continue;
      }
    }
    MPSIM_CHECK(cells == dims,
                source << ":" << line_no << ": row with " << cells
                       << " cells in a " << dims << "-column file: '"
                       << std::string_view(line, line_end - line) << "'");
    for (const char* cell = line;;) {
      const char* const cell_end = find(cell, line_end, ',');
      double v = 0.0;
      MPSIM_CHECK(parse_cell(cell, cell_end, v),
                  source << ":" << line_no << ": non-numeric cell '"
                         << std::string_view(cell, cell_end - cell) << "'");
      values.push_back(v);
      if (cell_end == line_end) break;
      cell = cell_end + 1;
    }
    line = next;
  }
  MPSIM_CHECK(!values.empty(), "'" << source << "' contains no data rows");

  const std::size_t length = values.size() / dims;
  std::vector<double> data(values.size());
  for (std::size_t t = 0; t < length; ++t) {
    for (std::size_t k = 0; k < dims; ++k) {
      data[k * length + t] = values[t * dims + k];
    }
  }
  return TimeSeries(length, dims, std::move(data));
}

}  // namespace mpsim
