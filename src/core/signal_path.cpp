#include "core/signal_path.hpp"

namespace offramps::core {

SignalPath::SignalPath(sim::Scheduler& sched, sim::Wire& in, sim::Wire& out,
                       sim::Tick prop_delay)
    : sched_(sched), in_(in), out_(out), delay_(prop_delay) {
  listener_ = in_.on_edge(
      [this](sim::Edge e, sim::Tick) {
        if (active_) on_input_edge(e);
      },
      sim::Reads::kForwarding);
}

SignalPath::~SignalPath() {
  in_.remove_listener(listener_);
  if (forwarded_) out_.drop_pending_fall();
}

void SignalPath::set_active(bool active) {
  if (active_ == active) return;
  // The input's waiting fall becomes its event: an active path reads it,
  // an inactive one no longer passes it on.  A fall already passed on
  // from an input that fell becomes this path's propagation event, which
  // leaves an inactive path's output alone.
  in_.file_pending_fall();
  settle_forwarded_fall();
  active_ = active;
  if (active_) {
    pass_level_ = in_.level();
    suppressing_pulse_ = false;
    update_output();
  }
  // On deactivation the direct jumpers take over the net; we simply stop
  // driving (the board re-syncs the output when it re-routes).
}

void SignalPath::force(std::optional<bool> level) {
  settle_forwarded_fall();
  forced_ = level;
  if (active_) update_output();
}

void SignalPath::set_pulse_filter(PulseFilter filter) {
  filter_ = std::move(filter);
  suppressing_pulse_ = false;
}

void SignalPath::keep_fall_events() {
  keep_fall_events_ = true;
  in_.file_pending_fall();
  settle_forwarded_fall();
}

void SignalPath::inject_pulse(sim::Tick width) {
  if (!active_ || forced_.has_value()) return;
  settle_forwarded_fall();
  if (out_.level() || inj_level_) {
    // Wait for a gap between original pulses, then retry.
    sched_.schedule_in(width, [this, width] { inject_pulse(width); });
    return;
  }
  inj_level_ = true;
  ++injected_;
  update_output();
  sched_.schedule_in(width, [this] {
    settle_forwarded_fall();
    inj_level_ = false;
    update_output();
  });
}

void SignalPath::on_input_edge(sim::Edge e) {
  if (e == sim::Edge::kRising) {
    if (filter_ && !filter_()) {
      suppressing_pulse_ = true;
      ++dropped_;
      in_.file_pending_fall();  // its fall ends the suppression
      return;
    }
    ++passed_;
    if (reads_falls()) {
      in_.file_pending_fall();
    } else {
      in_.forward_rising_edge(delay_);
    }
    sched_.schedule_in(delay_, [this] { deliver_rise(); });
  } else {
    // A fall that is an event replaces the one passed on without one.
    in_.forward_falling_edge(out_);
    if (suppressing_pulse_) {
      suppressing_pulse_ = false;
      return;
    }
    sched_.schedule_in(delay_, [this] {
      pass_level_ = false;
      update_output();
    });
  }
}

void SignalPath::deliver_rise() {
  settle_forwarded_fall();
  pass_level_ = true;
  if (!active_) return;
  if (reads_falls()) {
    in_.file_pending_fall();  // the path reads the fall as an edge
    update_output();
  } else {
    forwarded_ = in_.forward_rise(out_, delay_, this);
  }
}

void SignalPath::settle_forwarded_fall() {
  if (!forwarded_) return;
  out_.file_pending_fall();  // calls file_fall() unless it has landed
  if (forwarded_) {
    forwarded_ = false;
    pass_level_ = false;
  }
}

void SignalPath::file_fall(sim::Tick t, std::uint64_t seq) {
  forwarded_ = false;
  sched_.schedule_reserved(t, seq, [this] {
    pass_level_ = false;
    update_output();
  });
}

void SignalPath::update_output() {
  if (!active_) return;
  const bool level =
      forced_.has_value() ? *forced_ : (pass_level_ || inj_level_);
  out_.set(level);
}

}  // namespace offramps::core
