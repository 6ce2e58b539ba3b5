// Digital wires and analog channels.
//
// A `Wire` models one digital net of the Arduino <-> RAMPS interface at
// logic level (the board's 5 V <-> 3.3 V shifting is modelled as pure
// propagation delay on connections, not as a voltage).  Components observe
// wires by registering edge listeners; drivers call `set()`.
//
// An `AnalogChannel` models one analog net (the thermistor divider
// voltages, expressed as 10-bit ADC counts like the ATmega2560 sees them).
//
// Hot-path notes: listener lists live in `SmallVec` inline storage (most
// nets have one forwarding connection plus at most one observer), so
// wiring a board allocates nothing per net and edge delivery walks
// memory inside the Wire itself.  A zero-delay connection forwards an
// edge inside the event that made it; a delayed one schedules one event
// per edge, and the scheduler runs same-tick events in the order they
// were scheduled, so simultaneous edges keep a deterministic listener
// interleaving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "sim/scheduler.hpp"
#include "sim/small_fn.hpp"
#include "sim/small_vec.hpp"
#include "sim/time.hpp"

namespace offramps::sim {

/// Direction of a digital transition.
enum class Edge : std::uint8_t { kRising, kFalling };

/// One digital net.  Not copyable or movable: listeners capture `this`.
class Wire {
 public:
  using EdgeCallback = SmallFn<void(Edge, Tick)>;
  using ListenerId = std::size_t;

  Wire(Scheduler& sched, std::string name, bool initial = false)
      : sched_(sched), name_(std::move(name)), level_(initial),
        driven_(initial) {}

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool level() const { return level_; }

  /// Drives the wire to `level` at the current simulation time.  A no-op if
  /// the level is unchanged; otherwise all edge listeners fire immediately.
  /// While a fault is forced onto the net the drive is recorded but masked:
  /// observers keep seeing the fault level.
  void set(bool level) {
    driven_ = level;
    if (fault_.has_value()) {
      if (level != level_) ++fault_masked_drives_;
      return;
    }
    apply(level);
  }

  /// Physical-fault override (a short to a rail, a stuck pin): forces the
  /// observable level regardless of what drivers request.  Passing nullopt
  /// releases the fault and re-synchronizes the net to its driver's level.
  /// This is the hook `sim::FaultInjector` uses for stuck-at and glitch
  /// faults; it is not part of the normal driver API.
  void force_fault(std::optional<bool> level) {
    fault_ = level;
    apply(level.value_or(driven_));
  }

  [[nodiscard]] std::optional<bool> fault() const { return fault_; }
  /// Driver transitions swallowed while a fault held the net.
  [[nodiscard]] std::uint64_t fault_masked_drives() const {
    return fault_masked_drives_;
  }

  /// Emits a positive pulse: rising edge now, falling edge `width` later.
  void pulse(Tick width) {
    set(true);
    sched_.schedule_in(width, [this] { set(false); });
  }

  /// Registers a listener invoked on every edge.  Returns an id usable with
  /// remove_listener().
  ListenerId on_edge(EdgeCallback cb) {
    const ListenerId id = next_listener_id_++;
    listeners_.emplace_back(id, std::move(cb));
    return id;
  }

  /// Convenience: listener fired only on rising edges.
  template <typename F>
  ListenerId on_rising(F cb) {
    return on_edge([f = std::move(cb)](Edge e, Tick t) mutable {
      if (e == Edge::kRising) f(t);
    });
  }

  /// Convenience: listener fired only on falling edges.
  template <typename F>
  ListenerId on_falling(F cb) {
    return on_edge([f = std::move(cb)](Edge e, Tick t) mutable {
      if (e == Edge::kFalling) f(t);
    });
  }

  /// Detaches a listener.  Safe to call from inside a callback: the slot is
  /// nulled immediately and the vector compacted once no edge delivery is
  /// in flight, so jumper re-routing cannot grow the listener storage (or
  /// the per-edge scan) without bound.
  void remove_listener(ListenerId id) {
    for (auto& [lid, cb] : listeners_) {
      if (lid == id) {
        if (cb != nullptr) {
          cb = nullptr;
          ++dead_listeners_;
        }
        break;
      }
    }
    maybe_compact();
  }

  /// Listener slots currently stored, live or dead (observability for the
  /// compaction tests; bounded at ~2x the live count).
  [[nodiscard]] std::size_t listener_slots() const {
    return listeners_.size();
  }
  /// Listeners that still receive edges.
  [[nodiscard]] std::size_t live_listeners() const {
    return listeners_.size() - dead_listeners_;
  }

  /// Number of rising edges since construction.
  [[nodiscard]] std::uint64_t rising_count() const { return rising_count_; }
  /// Number of falling edges since construction.
  [[nodiscard]] std::uint64_t falling_count() const { return falling_count_; }
  /// Time of the most recent transition (0 if never driven).
  [[nodiscard]] Tick last_change() const { return last_change_; }

  [[nodiscard]] Scheduler& scheduler() { return sched_; }

 private:
  /// Switches the observable level and fires listeners (the body of the
  /// pre-fault `set()`).
  void apply(bool level) {
    if (level == level_) return;
    level_ = level;
    const Tick t = sched_.now();
    last_change_ = t;
    const Edge e = level ? Edge::kRising : Edge::kFalling;
    if (level) {
      ++rising_count_;
    } else {
      ++falling_count_;
    }
    // Listener list may grow during iteration (a callback adding another
    // listener); index-based loop keeps that safe.  Newly added listeners do
    // not see the current edge.  `delivering_` defers compaction so removal
    // from inside a callback never shuffles slots mid-scan; the scope guard
    // keeps it balanced even when a listener throws, so compaction can't be
    // disabled permanently by an escaping exception.
    struct DeliveryGuard {
      Wire& w;
      explicit DeliveryGuard(Wire& wire) : w(wire) { ++w.delivering_; }
      ~DeliveryGuard() {
        --w.delivering_;
        w.maybe_compact();
      }
    } guard(*this);
    const std::size_t n = listeners_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (listeners_[i].second != nullptr) {
        listeners_[i].second.invoke_unchecked(e, t);
      }
    }
  }

  /// Erases dead slots once they outnumber the live ones (amortized O(1)
  /// per removal) -- but never while an edge is being delivered.
  void maybe_compact() {
    if (delivering_ != 0 || dead_listeners_ * 2 < listeners_.size() ||
        dead_listeners_ == 0) {
      return;
    }
    listeners_.remove_if(
        [](const auto& slot) { return slot.second == nullptr; });
    dead_listeners_ = 0;
  }

  Scheduler& sched_;
  std::string name_;
  bool level_;
  bool driven_ = false;
  std::optional<bool> fault_;
  std::uint64_t fault_masked_drives_ = 0;
  Tick last_change_ = 0;
  std::uint64_t rising_count_ = 0;
  std::uint64_t falling_count_ = 0;
  ListenerId next_listener_id_ = 0;
  std::size_t dead_listeners_ = 0;
  int delivering_ = 0;
  SmallVec<std::pair<ListenerId, EdgeCallback>, 2> listeners_;
};

/// One analog net carrying a slowly varying value (ADC counts or volts).
class AnalogChannel {
 public:
  using ChangeCallback = SmallFn<void(double, Tick)>;

  AnalogChannel(Scheduler& sched, std::string name, double initial = 0.0)
      : sched_(sched), name_(std::move(name)), value_(initial),
        driven_value_(initial) {}

  AnalogChannel(const AnalogChannel&) = delete;
  AnalogChannel& operator=(const AnalogChannel&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double value() const { return value_; }

  /// Drives the channel.  Listeners fire on every call, even if unchanged,
  /// because consumers (the firmware ADC) sample on update cadence.
  /// An installed fault transform (sensor drift, open/short circuit)
  /// distorts the value between driver and observers.
  void set(double v) {
    driven_value_ = v;
    value_ = fault_ ? fault_(v) : v;
    publish();
  }

  /// Registers an update listener.
  void on_change(ChangeCallback cb) { listeners_.push_back(std::move(cb)); }

  /// Physical-fault hook (`sim::FaultInjector`): observers read
  /// `transform(driven)` instead of the driven value.  Pass nullptr to
  /// clear.  The faulted value is re-published immediately so slow-cadence
  /// consumers see the fault without waiting for the next driver update.
  void set_fault(std::function<double(double)> transform) {
    fault_ = std::move(transform);
    value_ = fault_ ? fault_(driven_value_) : driven_value_;
    publish();
  }

  [[nodiscard]] bool fault_active() const { return fault_ != nullptr; }

 private:
  void publish() {
    const Tick t = sched_.now();
    const std::size_t n = listeners_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (listeners_[i] != nullptr) listeners_[i].invoke_unchecked(value_, t);
    }
  }

  Scheduler& sched_;
  std::string name_;
  double value_;
  double driven_value_ = 0.0;
  std::function<double(double)> fault_;
  SmallVec<ChangeCallback, 2> listeners_;
};

/// RAII handle for a wire-to-wire connection created by `connect()`.
/// Destroying (or releasing) the handle detaches the forwarding listener,
/// which is how the OFFRAMPS board re-routes signals when jumpers change.
class Connection {
 public:
  Connection() = default;
  Connection(Wire& src, Wire::ListenerId id) : src_(&src), id_(id) {}
  Connection(Connection&& o) noexcept : src_(o.src_), id_(o.id_) {
    o.src_ = nullptr;
  }
  Connection& operator=(Connection&& o) noexcept {
    if (this != &o) {
      disconnect();
      src_ = o.src_;
      id_ = o.id_;
      o.src_ = nullptr;
    }
    return *this;
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { disconnect(); }

  /// Detaches the forwarding listener; the destination keeps its last level.
  void disconnect() {
    if (src_ != nullptr) {
      src_->remove_listener(id_);
      src_ = nullptr;
    }
  }

  [[nodiscard]] bool connected() const { return src_ != nullptr; }

 private:
  Wire* src_ = nullptr;
  Wire::ListenerId id_ = 0;
};

/// Forwards every edge of `src` onto `dst` after a fixed propagation
/// `delay`.  With delay == 0 the destination switches within the same event
/// via a dedicated fast-path listener: no scheduler trip and no per-edge
/// delay branch.  The destination is immediately synchronized to the
/// source's present level.  Returns a handle that detaches the forwarding
/// when destroyed.
inline Connection connect(Wire& src, Wire& dst, Tick delay = 0) {
  dst.set(src.level());
  Wire::ListenerId id;
  if (delay == 0) {
    id = src.on_edge(
        [&dst](Edge e, Tick) { dst.set(e == Edge::kRising); });
  } else {
    id = src.on_edge([&dst, delay](Edge e, Tick) {
      const bool lvl = (e == Edge::kRising);
      dst.scheduler().schedule_in(delay, [&dst, lvl] { dst.set(lvl); });
    });
  }
  return Connection(src, id);
}

}  // namespace offramps::sim
