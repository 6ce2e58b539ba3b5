#include "svc/session.hpp"

#include <utility>

#include "sim/error.hpp"

namespace offramps::svc {

RigSession::RigSession(SessionOptions options, ResolveRefs resolve)
    : options_(DetectorFeed::checked(options)),
      resolve_(std::move(resolve)) {}

void RigSession::fail(const std::string& why) {
  if (failed_) return;
  failed_ = true;
  error_ = why;
}

void RigSession::on_frame(const core::wire::Frame& frame) {
  using core::wire::FrameType;
  if (failed_ || saw_end_) return;
  if (!has_hello_ && frame.type != FrameType::kHello) {
    fail("session: first frame must be hello");
    return;
  }
  const bool detector_frame =
      frame.type == FrameType::kTxn || frame.type == FrameType::kPower ||
      frame.type == FrameType::kSample || frame.type == FrameType::kSlot;
  if (detector_frame && saw_finish_) {
    // The detector has run its end-of-print checks; a later window would
    // judge a print that is over.
    fail("session: detector frame after finish");
    return;
  }
  try {
    switch (frame.type) {
      case FrameType::kHello: {
        if (has_hello_) {
          fail("session: duplicate hello");
          return;
        }
        hello_ = frame.hello;
        has_hello_ = true;
        // A hostile size must not reach the slicer (or a 300-digit report
        // line): the session is lost before anything resolves.
        check_object(hello_.cube_mm, hello_.height_mm);
        const SessionRefs refs = resolve_(hello_);
        if (refs.golden == nullptr) {
          fail("session: no golden reference for object");
          return;
        }
        feed_.emplace(options_, refs);
        break;
      }
      case FrameType::kTxn:
        feed_->txn(frame.txn);
        break;
      case FrameType::kPower:
        feed_->sample(SampleKind::kPower, frame.power_t_s, frame.power_watts);
        break;
      case FrameType::kSample:
        feed_->sample(static_cast<SampleKind>(frame.sample_kind),
                      frame.sample_t_s, frame.sample_value);
        break;
      case FrameType::kSlot:
        feed_->slot();
        break;
      case FrameType::kFinish: {
        if (saw_finish_) {
          fail("session: duplicate finish");
          return;
        }
        // A lying blob here is a protocol failure, not frame damage: the
        // outer frame was intact, so the peer sent a bad capture.
        const core::Capture capture = core::Capture::from_binary(
            frame.finish.data(), frame.finish.size());
        saw_finish_ = true;
        feed_->finish(capture);
        break;
      }
      case FrameType::kEnd:
        meta_ = frame.end;
        saw_end_ = true;
        break;
    }
  } catch (const std::exception& e) {
    fail(std::string("session: ") + e.what());
  }
}

std::size_t RigSession::feed(const std::uint8_t* data, std::size_t n) {
  return reader_.feed(data, n,
                      [this](const core::wire::Frame& f) { on_frame(f); });
}

void RigSession::close() {
  if (saw_end_) return;
  reader_.close();
  if (reader_.failed() && !failed_) fail(reader_.error());
}

RigOutcome RigSession::outcome() const {
  RigOutcome out;
  bool spec_ok = true;
  if (has_hello_) {
    out.spec.name = hello_.name;
    out.spec.seed = hello_.seed;
    out.spec.cube_mm = hello_.cube_mm;
    out.spec.height_mm = hello_.height_mm;
    try {
      out.spec.sabotage = parse_sabotage(hello_.sabotage);
      out.spec.chaos = host::parse_chaos(hello_.chaos);
    } catch (const Error&) {
      // A hello whose spec strings fail their strict grammars is not a
      // stream we can report faithfully: quarantine.
      spec_ok = false;
    }
  }
  out.attempts = 1;

  // A session that ends without its capture never ran the end-of-print
  // channels, so its verdict is incomplete.
  const bool lost =
      failed_ || !saw_end_ || !has_hello_ || !spec_ok || !saw_finish_;
  if (lost) {
    out.status = RigStatus::kLost;
    out.failure_cause = failed_       ? error_
                        : !has_hello_ ? "session: no hello"
                        : !spec_ok    ? "session: malformed spec in hello"
                        : !saw_end_   ? "session: disconnected before end"
                                      : "session: end before finish";
    out.attempts = has_hello_ ? 1 : 0;
    return out;
  }

  out.detector = feed_->detector().report();
  out.print_finished = meta_.print_finished;
  out.safe_stopped = meta_.safe_stopped;
  out.sim_seconds = meta_.sim_seconds;
  out.final_counts = meta_.final_counts;
  if (reader_.resyncs() > 0 || reader_.corrupt_txns() > 0) {
    out.status = RigStatus::kRecovered;
    out.failure_cause = "session: resynced " +
                        std::to_string(reader_.resyncs()) +
                        " frame gap(s), dropped " +
                        std::to_string(reader_.corrupt_txns()) +
                        " corrupt transaction(s)";
  } else {
    out.status = RigStatus::kOk;
  }
  return out;
}

}  // namespace offramps::svc
