// Long-lived fleet service: rig sessions over Unix-domain sockets or a
// framed stdin pipe, plus offline corpus replay.
//
// The batch fleet (svc::Fleet) simulates its rigs itself; the daemon
// inverts that: rigs are *clients* that join and leave mid-campaign,
// streaming core::wire sessions at the service.  Each accepted session
// is one job post()ed to the host::ParallelRunner's job queue, so
// sessions shard across its workers, and is consumed through a
// RigSession, which preserves the SPSC lossless-backpressure contract
// end to end: the daemon reads a connection only as fast as the
// detector drains, so a slow detector fills the kernel socket buffer
// and stalls the producer - it never drops.  SIGTERM (or SIGINT, or
// stdin EOF) drains in-flight rigs and yields the usual deterministic
// FleetReport, rigs ordered by their hello's campaign index.
//
// What a replay reproduces: a session re-runs the detector calls its live
// attempt made (both go through svc::DetectorFeed), so a rig the live
// campaign judged on its first attempt replays to its report entry byte
// for byte.  A session carries no supervision record, though: a rig the
// live supervisor retried replays as "ok" after 1 attempt with no failure
// cause, and a degraded attempt's stream (count channels only) replays
// with the campaign's full set of channel rows.  Carrying that record
// would change the wire format.
//
// Golden references resolve through a shared ReferenceResolver: one
// compute per content digest per process - the fleet's own slice and
// golden print (svc::Reference) - backed by the on-disk svc::RefCache
// when a cache directory is configured, so a farm daemon simulates each
// reference at most once, ever.
//
// replay_corpus() is the offline flavor: re-run detector verdicts from
// `--captures`-saved session files without simulating anything,
// optionally mangled by session-layer chaos drills (disconnect,
// framecorrupt) to prove the quarantine/recovery ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "host/chaos.hpp"
#include "svc/fleet.hpp"
#include "svc/session.hpp"

namespace offramps::svc {

struct ReplayOptions {
  ServiceOptions service{};
  /// Session-layer chaos drills keyed by corpus file index (sorted
  /// order), applied to the loaded stream bytes before parsing.  Only
  /// disconnect and framecorrupt, at an index inside the corpus.
  std::vector<std::pair<std::size_t, host::ChaosSpec>> chaos;
};

/// Re-runs detector verdicts over every `*.ofs` session file in
/// `corpus_dir` (sorted, sharded over the worker pool), resolving golden
/// references through the cache instead of the simulator.  Throws
/// offramps::Error, before judging anything, when the corpus is missing
/// or empty or a chaos order is not a session drill inside the corpus.
FleetReport replay_corpus(const std::string& corpus_dir,
                          const ReplayOptions& options);

struct DaemonOptions {
  ServiceOptions service{};
  /// Unix-domain socket to listen on; empty or "-" serves concatenated
  /// session streams from stdin instead.
  std::string socket_path;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);

  /// Serves until SIGTERM/SIGINT (socket mode) or EOF (stdin mode),
  /// then drains in-flight sessions and returns the campaign report.
  FleetReport serve();

  /// Join client: streams one recorded `.ofs` session file into a
  /// serving daemon and waits for its one-byte verdict ack.  Returns 0
  /// when the session was accepted (clean or alarmed), 1 when the
  /// daemon reported it lost or the socket failed.
  static int stream_file(const std::string& socket_path,
                         const std::string& file);

 private:
  FleetReport serve_socket();
  FleetReport serve_stdin();

  DaemonOptions options_;
};

}  // namespace offramps::svc
