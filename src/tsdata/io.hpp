// CSV import/export for time series: one column per dimension, one row per
// sample, optional header.  Used by the example applications so users can
// run the library on their own data.
#pragma once

#include <string>
#include <string_view>

#include "tsdata/time_series.hpp"

namespace mpsim {

/// Writes `series` as CSV.  With `header`, the first row is dim0,dim1,...
/// Values are written as printf("%.17g"), so read_csv restores them bit
/// for bit.
void write_csv(const std::string& path, const TimeSeries& series,
               bool header = true);

/// Reads a CSV written by write_csv (or any numeric CSV with consistent
/// column counts).  A first row whose first cell is not a number is a
/// header.  Cells are numbers as strtod reads them, with optional leading
/// and trailing blanks; docs/API.md lists the grammar and each rejection.
TimeSeries read_csv(const std::string& path);

/// read_csv on text already in memory; `source` names it in error
/// messages.  `text` need not be NUL-terminated.
TimeSeries parse_csv(std::string_view text, const std::string& source);

}  // namespace mpsim
