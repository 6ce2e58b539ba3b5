#include "core/bytes.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "sim/error.hpp"

namespace offramps::core {

std::string ByteReader::str(std::size_t cap, const char* what) {
  const std::uint32_t n = u32();
  if (n > cap) fail(std::string(what) + " longer than its cap");
  const std::uint8_t* p = bytes(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

void ByteReader::magic(std::string_view tag, const char* what) {
  need(tag.size());
  if (std::memcmp(data_ + pos_, tag.data(), tag.size()) != 0) {
    fail(std::string("bad magic (") + what + ")");
  }
  pos_ += tag.size();
}

void ByteReader::finish() const {
  if (remaining() != 0) fail("trailing bytes after the last record");
}

void ByteReader::fail(const std::string& why) const {
  throw Error(std::string(context_) + ": " + why);
}

void ByteReader::truncated(std::size_t n) const {
  fail("truncated input (need " + std::to_string(n) + " bytes at offset " +
       std::to_string(pos_) + ", have " + std::to_string(remaining()) + ")");
}

std::vector<std::uint8_t> read_file(const std::string& path,
                                    const char* context) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw Error(std::string(context) + ": cannot open " + path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  // A regular file is read straight into a vector of its length.  Bytes
  // past that length (a file that grew) and everything a pipe or device
  // yields arrive through `chunk`; a regular file ends with one empty
  // read there.
  struct stat st{};
  const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::vector<std::uint8_t> bytes(regular ? static_cast<std::size_t>(st.st_size)
                                          : 0);
  std::size_t have = 0;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const bool direct = have < bytes.size();
    const ssize_t n =
        direct ? ::read(fd, bytes.data() + have, bytes.size() - have)
               : ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw Error(std::string(context) + ": read failed for " + path);
    if (n == 0) break;
    if (!direct) bytes.insert(bytes.end(), chunk, chunk + n);
    have += static_cast<std::size_t>(n);
  }
  bytes.resize(have);  // a file that shrank since fstat
  return bytes;
}

void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes,
                       const char* context) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error(std::string(context) + ": cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();  // flush now, so a full disk fails here, not silently
    if (!out) throw Error(std::string(context) + ": write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw Error(std::string(context) + ": rename to " + path +
                " failed: " + ec.message());
  }
}

}  // namespace offramps::core
