// Byte-level text I/O shared by the CSV writers (tsdata::write_csv,
// serve::profile_to_csv), the CSV reader and the checkpoint journal: one
// number formatter and one whole-file read.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mpsim {

/// Appends `v` byte for byte as printf("%.17g") — and so an ostream at
/// precision 17 — writes it, including "-0", "inf", "-inf", "nan" and
/// "-nan" (docs/DESIGN.md, "CSV I/O").
void append_double(std::string& out, double v);

/// Appends `v` in decimal, with a leading '-' when negative.
void append_int(std::string& out, std::int64_t v);

/// The whole contents of `path`, or nullopt when it cannot be opened or
/// read.  One allocation for a regular file.
std::optional<std::string> read_file(const std::string& path);

}  // namespace mpsim
