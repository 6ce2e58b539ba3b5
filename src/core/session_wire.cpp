#include "core/session_wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "core/bytes.hpp"
#include "sim/error.hpp"

namespace offramps::core::wire {
namespace {

/// Emits the 7-byte frame header for a payload of known final size and
/// returns the writer for the payload.
ByteWriter begin_frame(std::vector<std::uint8_t>& out, FrameType type,
                       std::size_t payload_len) {
  ByteWriter w(out);
  w.u16(kFrameMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload_len));
  return w;
}

constexpr std::size_t kMaxHelloString = 1024;

/// Payload damage is a resync event, not a stream abort: the decoders
/// turn the reader's Error into `false`, and so treat a hello with a
/// non-finite object size and an end frame with a non-finite or negative
/// sim_seconds - values the report would print as a bare "nan".
bool decode_hello(const std::uint8_t* payload, std::size_t len,
                  SessionHello& out) {
  try {
    ByteReader r(payload, len, "session hello");
    out.rig_index = r.u32();
    out.seed = r.u64();
    out.cube_mm = r.f64();
    out.height_mm = r.f64();
    out.name = r.str(kMaxHelloString, "name");
    out.sabotage = r.str(kMaxHelloString, "sabotage");
    out.chaos = r.str(kMaxHelloString, "chaos");
    r.finish();
    return std::isfinite(out.cube_mm) && std::isfinite(out.height_mm);
  } catch (const Error&) {
    return false;
  }
}

bool decode_end(const std::uint8_t* payload, std::size_t len,
                SessionMeta& out) {
  try {
    ByteReader r(payload, len, "session end");
    const std::uint8_t finished = r.u8();
    const std::uint8_t stopped = r.u8();
    if (finished > 1 || stopped > 1) return false;
    out.print_finished = finished != 0;
    out.safe_stopped = stopped != 0;
    out.sim_seconds = r.f64();
    for (auto& c : out.final_counts) c = r.i64();
    r.finish();
    return std::isfinite(out.sim_seconds) && out.sim_seconds >= 0.0;
  } catch (const Error&) {
    return false;
  }
}

/// Validates a candidate frame header's type and length bounds.  A header
/// that fails here is treated as a coincidental magic inside garbage.
bool plausible_frame(std::uint8_t type, std::uint32_t len) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
      return len <= kMaxHelloPayload;
    case FrameType::kTxn:
      return len == kTxnPayloadSize;
    case FrameType::kPower:
      return len == kPowerPayloadSize;
    case FrameType::kSample:
      return len == kSamplePayloadSize;
    case FrameType::kSlot:
      return len == 0;
    case FrameType::kFinish:
      return len <= kMaxFinishPayload;
    case FrameType::kEnd:
      return len == kEndPayloadSize;
  }
  return false;
}

}  // namespace

void append_stream_header(std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  w.bytes(kStreamMagic.data(), kStreamMagic.size());
  w.u16(kStreamVersion);
  w.u16(0);  // reserved
}

void append_hello(std::vector<std::uint8_t>& out, const SessionHello& hello) {
  std::vector<std::uint8_t> payload;
  ByteWriter p(payload);
  p.u32(hello.rig_index);
  p.u64(hello.seed);
  p.f64(hello.cube_mm);
  p.f64(hello.height_mm);
  p.str(hello.name);
  p.str(hello.sabotage);
  p.str(hello.chaos);
  if (payload.size() > kMaxHelloPayload) {
    throw Error("session_wire: hello payload exceeds cap");
  }
  ByteWriter w = begin_frame(out, FrameType::kHello, payload.size());
  w.bytes(payload.data(), payload.size());
}

void append_txn(std::vector<std::uint8_t>& out, const Transaction& txn) {
  ByteWriter w = begin_frame(out, FrameType::kTxn, kTxnPayloadSize);
  const auto frame = txn.to_frame();
  w.bytes(frame.data(), frame.size());
  w.u64(txn.time_ns);
}

void append_power(std::vector<std::uint8_t>& out, double t_s, double watts) {
  ByteWriter w = begin_frame(out, FrameType::kPower, kPowerPayloadSize);
  w.f64(t_s);
  w.f64(watts);
}

void append_sample(std::vector<std::uint8_t>& out, std::uint8_t kind,
                   double t_s, double value) {
  ByteWriter w = begin_frame(out, FrameType::kSample, kSamplePayloadSize);
  w.u8(kind);
  w.f64(t_s);
  w.f64(value);
}

void append_slot(std::vector<std::uint8_t>& out) {
  begin_frame(out, FrameType::kSlot, 0);
}

void append_finish(std::vector<std::uint8_t>& out, const Capture& capture) {
  const auto blob = capture.to_binary();
  if (blob.size() > kMaxFinishPayload) {
    throw Error("session_wire: capture blob exceeds cap");
  }
  ByteWriter w = begin_frame(out, FrameType::kFinish, blob.size());
  w.bytes(blob.data(), blob.size());
}

void append_end(std::vector<std::uint8_t>& out, const SessionMeta& meta) {
  ByteWriter w = begin_frame(out, FrameType::kEnd, kEndPayloadSize);
  w.u8(meta.print_finished ? 1 : 0);
  w.u8(meta.safe_stopped ? 1 : 0);
  w.f64(meta.sim_seconds);
  for (const auto c : meta.final_counts) w.i64(c);
}

void SessionRecorder::save(const std::string& path) const {
  write_file_atomic(path, bytes_, "SessionRecorder::save");
}

void FrameReader::fail(const std::string& why) {
  failed_ = true;
  error_ = why;
  buffer_.clear();
}

std::size_t FrameReader::drain(const std::uint8_t* data, std::size_t size,
                               const Callback& cb) {
  std::size_t pos = 0;
  if (!header_seen_) {
    if (size < kStreamHeaderSize) return 0;
    if (!std::equal(kStreamMagic.begin(), kStreamMagic.end(), data)) {
      fail("bad stream magic (not an OFSS session)");
      return 0;
    }
    const auto version = load_le<std::uint16_t>(data + 4);
    if (version != kStreamVersion) {
      fail("unsupported session version " + std::to_string(version));
      return 0;
    }
    header_seen_ = true;
    pos = kStreamHeaderSize;
  }

  const auto note_resync = [&] {
    if (!in_resync_gap_) {
      ++resyncs_;
      in_resync_gap_ = true;
    }
  };

  // One Frame serves the whole drain: each type sets every field it
  // uses, and hello and finish are cleared after their frame (emitted or
  // not: a hello that fails to decode may have set some fields) so no
  // later frame carries them.
  Frame frame;
  while (!ended_ && size - pos >= kFrameHeaderSize) {
    if (load_le<std::uint16_t>(data + pos) != kFrameMagic) {
      // Hunt for the next frame boundary, UART-receiver style.
      note_resync();
      std::size_t next = pos + 1;
      while (next + 1 < size &&
             load_le<std::uint16_t>(data + next) != kFrameMagic) {
        ++next;
      }
      if (next + 1 >= size) {
        // Keep the final byte: it may be the first half of a magic.
        pos = size - 1;
        break;
      }
      pos = next;
      continue;
    }
    const std::uint8_t type = data[pos + 2];
    const auto len = load_le<std::uint32_t>(data + pos + 3);
    if (!plausible_frame(type, len)) {
      // Coincidental magic inside a damaged region: step past it.
      note_resync();
      pos += 2;
      continue;
    }
    if (size - pos - kFrameHeaderSize < len) break;  // wait

    const std::uint8_t* payload = data + pos + kFrameHeaderSize;
    frame.type = static_cast<FrameType>(type);
    bool emit = true;
    switch (frame.type) {
      case FrameType::kHello:
        if (!decode_hello(payload, len, frame.hello)) {
          note_resync();
          emit = false;
        }
        break;
      case FrameType::kTxn: {
        std::array<std::uint8_t, Transaction::kFrameSize> inner{};
        std::memcpy(inner.data(), payload, inner.size());
        const auto time_ns = load_le<std::uint64_t>(payload + inner.size());
        const auto txn = Transaction::from_frame(inner, time_ns);
        if (!txn) {
          ++corrupt_txns_;
          emit = false;
        } else {
          frame.txn = *txn;
        }
        break;
      }
      case FrameType::kPower:
        frame.power_t_s = load_le<double>(payload);
        frame.power_watts = load_le<double>(payload + 8);
        break;
      case FrameType::kSample:
        frame.sample_kind = payload[0];
        if (frame.sample_kind < kSampleKindMin ||
            frame.sample_kind > kSampleKindMax) {
          // An unknown kind is a future channel (or damage): skip the
          // frame, keep the session.
          note_resync();
          emit = false;
          break;
        }
        frame.sample_t_s = load_le<double>(payload + 1);
        frame.sample_value = load_le<double>(payload + 9);
        break;
      case FrameType::kSlot:
        break;
      case FrameType::kFinish:
        frame.finish.assign(payload, payload + len);
        break;
      case FrameType::kEnd:
        if (!decode_end(payload, len, frame.end)) {
          note_resync();
          emit = false;
        } else {
          ended_ = true;
        }
        break;
    }
    pos += kFrameHeaderSize + len;
    if (emit) {
      in_resync_gap_ = false;
      cb(frame);
    }
    if (frame.type == FrameType::kHello) frame.hello = SessionHello{};
    if (frame.type == FrameType::kFinish) frame.finish.clear();
  }
  return pos;
}

std::size_t FrameReader::feed(const std::uint8_t* data, std::size_t n,
                              const Callback& cb) {
  if (ended_) return 0;
  if (failed_) return n;  // discard: the session is already dead
  // With nothing pending, parse the caller's bytes in place; otherwise
  // append them to the pending tail of earlier chunks.
  const bool in_place = buffer_.empty();
  if (!in_place) buffer_.insert(buffer_.end(), data, data + n);
  const std::uint8_t* bytes = in_place ? data : buffer_.data();
  const std::size_t size = in_place ? n : buffer_.size();
  const std::size_t consumed = drain(bytes, size, cb);
  if (failed_) return n;
  if (ended_) {
    // Leftover bytes belong to the next concatenated stream; they all
    // arrived in this chunk (earlier chunks ended inside the kEnd frame).
    buffer_.clear();
    return n - (size - consumed);
  }
  if (in_place) {
    buffer_.assign(data + consumed, data + n);
  } else {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return n;
}

void FrameReader::close() {
  if (ended_ || failed_) return;
  if (!header_seen_ && buffer_.empty()) {
    fail("empty session stream");
    return;
  }
  fail(buffer_.empty() ? "disconnected before session end"
                       : "disconnected mid-frame before session end");
}

std::vector<std::string> list_corpus_files(const std::string& dir,
                                           const std::string& extension) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw Error("list_corpus_files: not a directory: " + dir);
  }
  std::vector<std::string> files;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != extension) continue;
    files.push_back(it->path().string());
  }
  if (ec) {
    throw Error("list_corpus_files: cannot read " + dir + ": " +
                ec.message());
  }
  std::sort(files.begin(), files.end(),
            [](const std::string& a, const std::string& b) {
              return fs::path(a).filename().string() <
                     fs::path(b).filename().string();
            });
  return files;
}

}  // namespace offramps::core::wire
