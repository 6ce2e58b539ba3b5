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
// memory inside the Wire itself.  A connection schedules one event per
// forwarded edge, and the scheduler runs same-tick events in the order
// they were scheduled, so simultaneous edges keep a deterministic
// listener interleaving.
//
// Each listener says which edges it reads (`Reads`).  A STEP pulse's fall
// that no listener reads is not scheduled: it takes the sequence number
// its event would have had and lands at that (tick, seq) place in drain
// order (`Wire::pulse`), and a forwarder passes it on to its output the
// same way, hop by hop (`Wire::forward_rise`).  Levels, counts and every
// listener read what they read when each fall was an event.
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

/// Which edges a listener reads.  A wire schedules a pulse's fall as an
/// event only when a listener may read it (see Wire::pulse).
enum class Reads : std::uint8_t {
  /// Both edges: taps, duty meters, falling-edge filters.  The default.
  kEveryEdge,
  /// Rising edges only (step counters): falls are never delivered.
  kRisingEdges,
  /// A jumper or FPGA path driving another wire.  It gets both edges,
  /// and passes on a fall that lands without an event as another such
  /// fall on its output (see "Forwarders" below).
  kForwarding,
};

/// The owner of a fall that a wire lands without an event on behalf of a
/// forwarder (an FPGA path).  Told when that fall must become an event
/// after all, or is dropped.
class FallSource {
 public:
  /// The fall must become an event: file the one the forwarder would
  /// have filed, at the reserved place (t, seq).
  virtual void file_fall(Tick t, std::uint64_t seq) = 0;
  /// The fall is dropped: the input fall it followed became an event,
  /// which reaches the forwarder as an edge.
  virtual void fall_dropped() = 0;

 protected:
  ~FallSource() = default;
};

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
  [[nodiscard]] bool level() const { return level_ && !fall_landed(); }

  /// Drives the wire to `level` at the current simulation time.  A no-op if
  /// the level is unchanged; otherwise all edge listeners fire immediately.
  /// While a fault is forced onto the net the drive is recorded but masked:
  /// observers keep seeing the fault level.
  void set(bool level) {
    settle();
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
    file_pending_fall();
    fault_ = level;
    apply(level.value_or(driven_));
  }

  [[nodiscard]] std::optional<bool> fault() const { return fault_; }
  /// Driver transitions swallowed while a fault held the net.
  [[nodiscard]] std::uint64_t fault_masked_drives() const {
    return fault_masked_drives_;
  }

  /// Emits a positive pulse: rising edge now, falling edge `width` later.
  ///
  /// The fall is an event only when something may read it: a listener of
  /// every edge, a forwarder that asks for it, a fault on the net, a
  /// scheduler time warp, or a wire that was already high.  Otherwise it
  /// takes the sequence number its event would have had and lands without
  /// one: level(), set(), force_fault(), falling_count() and last_change()
  /// treat it as done once the run has passed that (tick, seq) place.  It
  /// becomes its event again, at that place, when a reader of falls
  /// registers or a fault is forced while it waits, and when the next
  /// pulse starts first.
  void pulse(Tick width) {
    if (!raise_holding_fall(sched_.now() + width, nullptr)) {
      sched_.schedule_in(width, [this] { set(false); });
    }
  }

  /// Registers a listener for the edges it `reads`.  Returns an id usable
  /// with remove_listener().  A listener that reads falls turns a fall
  /// waiting to land without an event back into its event.
  ListenerId on_edge(EdgeCallback cb, Reads reads = Reads::kEveryEdge) {
    if (reads != Reads::kRisingEdges) file_pending_fall();
    if (reads == Reads::kEveryEdge) ++fall_readers_;
    const ListenerId id = next_listener_id_++;
    listeners_.emplace_back(Listener{id, reads, std::move(cb)});
    return id;
  }

  /// Convenience: listener fired only on rising edges.
  template <typename F>
  ListenerId on_rising(F cb) {
    return on_edge([f = std::move(cb)](Edge, Tick t) mutable { f(t); },
                   Reads::kRisingEdges);
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
    for (auto& l : listeners_) {
      if (l.id == id) {
        if (l.cb != nullptr) {
          l.cb = nullptr;
          ++dead_listeners_;
          if (l.reads == Reads::kEveryEdge) --fall_readers_;
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
  [[nodiscard]] std::uint64_t falling_count() const {
    return falling_count_ + (level_ && fall_landed() ? 1 : 0);
  }
  /// Time of the most recent transition (0 if never driven).
  [[nodiscard]] Tick last_change() const {
    return level_ && fall_landed() ? fall_tick_ : last_change_;
  }

  [[nodiscard]] Scheduler& scheduler() { return sched_; }

  // --- Forwarders (Reads::kForwarding) -------------------------------------
  //
  // A forwarder copies this wire's edges onto another wire `delay` later.
  // It calls forward_rising_edge() on each rise and forward_rise() when
  // that rise reaches its output, or file_pending_fall() on both when it
  // must read the fall as an edge; and forward_falling_edge() on each
  // fall.  Between them they pass a fall that lands here without an event
  // on as one that lands on the output `delay` later, and make it an
  // event again wherever a fall landing without one would be seen.

  /// In a forwarder's rising-edge callback, for a rise it delivers
  /// `delay` later.  The fall that ends this high stays an event if it
  /// would land before then (a pulse narrower than the delay), or if it
  /// was not one this wire's rise announced (see raise_holding_fall).
  void forward_rising_edge(Tick delay) {
    if (arming_) {
      if (arming_fall_ < sched_.now() + delay) arming_ = false;
    } else {
      file_pending_fall();
    }
  }

  /// When a forwarded rise reaches `dst`: raises it, and passes the fall
  /// waiting here on as a fall of `dst` `delay` later that also lands
  /// without an event, announced to dst's own listeners as its rise's
  /// fall.  Where dst or its listeners need the fall as an event, the
  /// fall here becomes one instead and reaches the forwarder as an edge.
  /// `source`, when set, files dst's fall as the forwarder's own event
  /// if it must become one later.  True when dst holds the fall.
  bool forward_rise(Wire& dst, Tick delay, FallSource* source = nullptr) {
    if (fall_pending_) return forward_held_fall(dst, delay, source);
    dst.set(true);
    return false;
  }

  /// In a forwarder's falling-edge callback: the fall reached it as an
  /// edge, so the fall passed on to `dst` for it is dropped.
  void forward_falling_edge(Wire& dst) {
    if (follower_ != &dst) return;
    follower_ = nullptr;
    dst.drop_pending_fall();
  }

  /// Makes the fall that ends this high an event: one waiting to land
  /// without an event is filed at its place (which drops the fall passed
  /// on for it), and inside the rise of pulse() or forward_rise() the
  /// fall is scheduled as an event.
  void file_pending_fall() {
    arming_ = false;
    if (fall_pending_) file_held_fall();
  }

  /// Forgets a fall still waiting to land without an event (a forwarder
  /// going away while its output holds one).
  void drop_pending_fall();

 private:
  struct Listener {
    ListenerId id = 0;
    Reads reads = Reads::kEveryEdge;
    EdgeCallback cb;
  };

  /// True once the run has passed the place of a fall waiting to land
  /// without an event (settle() applies it on the next write).
  [[nodiscard]] bool fall_landed() const {
    return fall_pending_ && sched_.passed(fall_tick_, fall_seq_);
  }

  /// Applies a landed fall as its event would have (land_fall).
  void settle() {
    if (fall_landed()) land_fall();
  }
  /// The drive and the level fall, and no listener hears it, since none
  /// reads it.
  void land_fall();
  /// file_pending_fall() for a fall the wire holds.
  void file_held_fall();
  /// forward_rise() for a fall the wire holds.
  bool forward_held_fall(Wire& dst, Tick delay, FallSource* source);

  /// True when nothing needs this wire's falls as events.
  [[nodiscard]] bool can_land_unread() const {
    return fall_readers_ == 0 && !fault_.has_value() &&
           !sched_.time_warp_active();
  }

  /// Raises the wire, announcing to the rise's listeners a fall at `fall`
  /// (arming_fall_) that may land without an event.  A listener of the
  /// rise keeps it an event through forward_rising_edge() or
  /// file_pending_fall(); so do a reader of falls, a fault, a time warp
  /// and a wire already high, whose rise no listener hears.  Otherwise
  /// the fall takes its sequence number now, after everything the rise's
  /// listeners filed, as its event would have, and the wire holds it
  /// (on behalf of `source`, see FallSource).  False when the caller must
  /// make the fall an event.
  bool raise_holding_fall(Tick fall, FallSource* source) {
    file_pending_fall();
    arming_ = !level_ && can_land_unread();
    arming_fall_ = fall;
    set(true);
    if (!std::exchange(arming_, false)) return false;
    fall_tick_ = fall;
    fall_seq_ = sched_.reserve(fall);
    fall_source_ = source;
    follower_ = nullptr;
    fall_pending_ = true;
    return true;
  }

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
      Listener& l = listeners_[i];
      if (l.cb != nullptr && (level || l.reads != Reads::kRisingEdges)) {
        l.cb.invoke_unchecked(e, t);
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
    listeners_.remove_if([](const Listener& l) { return l.cb == nullptr; });
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
  /// Live Reads::kEveryEdge listeners.
  std::size_t fall_readers_ = 0;
  int delivering_ = 0;
  SmallVec<Listener, 2> listeners_;
  /// A fall waiting to land without an event at (fall_tick_, fall_seq_).
  bool fall_pending_ = false;
  Tick fall_tick_ = 0;
  std::uint64_t fall_seq_ = 0;
  FallSource* fall_source_ = nullptr;
  /// The wire a forwarder passed the waiting fall on to.
  Wire* follower_ = nullptr;
  /// Inside raise_holding_fall(): the rise's fall, due at arming_fall_,
  /// may still land without an event.
  bool arming_ = false;
  Tick arming_fall_ = 0;
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
  /// A source fall still waiting to land without an event becomes its
  /// event, which drops the fall passed on for it: a jumper pulled before
  /// its source falls does not forward that fall.
  void disconnect() {
    if (src_ != nullptr) {
      src_->remove_listener(id_);
      src_->file_pending_fall();
      src_ = nullptr;
    }
  }

  [[nodiscard]] bool connected() const { return src_ != nullptr; }

 private:
  Wire* src_ = nullptr;
  Wire::ListenerId id_ = 0;
};

/// Forwards every edge of `src` onto `dst` after a fixed propagation
/// `delay` (the board's jumpers take 1 ns).  The destination is
/// immediately synchronized to the source's present level.  Returns a
/// handle that detaches the forwarding when destroyed.  A pulse fall
/// that lands without an event is passed on as another such fall,
/// `delay` later, while nothing reads the destination's falls
/// (Reads::kForwarding).
inline Connection connect(Wire& src, Wire& dst, Tick delay) {
  dst.set(src.level());
  const Wire::ListenerId id = src.on_edge(
      [&src, &dst, delay](Edge e, Tick) {
        Scheduler& sched = dst.scheduler();
        if (e == Edge::kRising) {
          src.forward_rising_edge(delay);
          sched.schedule_in(delay, [&src, &dst, delay] {
            src.forward_rise(dst, delay);
          });
        } else {
          src.forward_falling_edge(dst);
          sched.schedule_in(delay, [&dst] { dst.set(false); });
        }
      },
      Reads::kForwarding);
  return Connection(src, id);
}

}  // namespace offramps::sim
