#include "common/text_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>

namespace mpsim {

void append_double(std::string& out, double v) {
  // "-2.2250738585072014e-308" is the longest %.17g form: 24 characters.
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // A regular file gets a buffer one byte past its size, so the read that
  // sees end-of-file needs no growth; pipes and other streams report no
  // size and double the buffer as they go.
  struct stat st {};
  const bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::string buf(sized ? std::size_t(st.st_size) + 1 : 4096, '\0');
  std::size_t used = 0;
  while (true) {
    if (used == buf.size()) buf.resize(buf.size() * 2);
    const ssize_t got = ::read(fd, buf.data() + used, buf.size() - used);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (got == 0) break;
    used += std::size_t(got);
  }
  ::close(fd);
  buf.resize(used);
  return buf;
}

}  // namespace mpsim
