#ifndef SES_CORE_EXECUTOR_H_
#define SES_CORE_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/automaton.h"
#include "core/filter.h"
#include "core/instance.h"
#include "core/match.h"
#include "core/trace.h"

namespace ses {

/// Execution options for the SES automaton.
struct ExecutorOptions {
  /// Enables the §4.5 event pre-filter (skipped automatically when the
  /// pattern has a variable without constant conditions; see
  /// EventPreFilter).
  bool enable_prefilter = true;
};

/// Counters collected during execution. `max_simultaneous_instances` is the
/// |Ω| statistic the paper's Experiments 1 and 2 report (measured after
/// each input event has been fully processed).
struct ExecutorStats {
  int64_t events_seen = 0;       // events offered to the executor
  int64_t events_filtered = 0;   // dropped by the pre-filter
  int64_t events_processed = 0;  // reached the instance loop
  int64_t instances_created = 0;
  int64_t instances_expired = 0;
  int64_t max_simultaneous_instances = 0;
  int64_t transitions_evaluated = 0;
  int64_t transitions_fired = 0;
  int64_t conditions_evaluated = 0;
  int64_t matches_emitted = 0;
};

/// Executes a SES automaton over a stream of events: function SESExec of
/// Algorithm 1, with ConsumeEvent of Algorithm 2 inlined as a private
/// helper. One difference to the paper's pseudo-code: Algorithm 1 only
/// reports a match when an instance's window expires, so matches still
/// pending at the end of a finite relation would be lost; Flush() treats
/// end-of-stream as expiry and must be called after the last event.
class SesExecutor {
 public:
  /// `automaton` must outlive the executor and is not owned. The executor
  /// builds its own EventPreFilter from the automaton's pattern.
  SesExecutor(const SesAutomaton* automaton, ExecutorOptions options);

  /// Shares a pre-built pre-filter (see plan::CompiledPlan). The filter is
  /// immutable after construction, so one instance can serve every
  /// per-partition executor of a partitioned run instead of re-scanning the
  /// pattern's conditions on every partition creation. A null filter falls
  /// back to building one.
  SesExecutor(const SesAutomaton* automaton, ExecutorOptions options,
              std::shared_ptr<const EventPreFilter> filter);

  /// Feeds the next event (strictly increasing timestamps; enforced by
  /// Matcher). Completed matches are appended to `out`.
  void Consume(const Event& event, std::vector<Match>* out);

  /// Ends the stream: every instance in the accepting state yields a
  /// match; all instances are discarded.
  void Flush(std::vector<Match>* out);

  /// Drops all instances and statistics.
  void Reset();

  /// Serializes the executor's complete runtime state — every open
  /// automaton instance with its match buffer, plus the statistics — into
  /// `out` using the checkpoint payload primitives (storage/checkpoint.h).
  /// Call only between events (never mid-Consume).
  void Checkpoint(std::string* out) const;

  /// Restores state written by Checkpoint() into this executor (discarding
  /// whatever it held). The executor must run the same automaton the
  /// checkpoint was taken from; a state id or variable outside the
  /// automaton is Corruption, and so is a match buffer whose binding
  /// timestamps are not strictly increasing or one with a binding later
  /// than `latest` (the timestamp of the last event consumed before the
  /// checkpoint). On error the executor is left Reset().
  Status Restore(const char** p, const char* limit, Timestamp latest);

  const ExecutorStats& stats() const { return stats_; }
  size_t num_active_instances() const { return instances_.size(); }
  const SesAutomaton& automaton() const { return *automaton_; }

  /// Installs an observer (nullptr to remove). Not owned; must outlive the
  /// executor or be removed before destruction.
  void set_observer(ExecutionObserver* observer) { observer_ = observer; }

 private:
  /// Algorithm 2: lets one instance consume `event`; derived instances are
  /// appended to next_. Returns nothing: a firing transition replaces the
  /// instance by its branches, a non-firing event moves the instance to
  /// next_ unchanged unless it still sits in the start state.
  void ConsumeOnInstance(AutomatonInstance& instance, const Event& event);

  /// Evaluates Θδ of `transition` for binding `event`, against the
  /// bindings collected in `buffer`. Constant conditions depend only on the
  /// event, so their verdict is computed once per (event, transition) and
  /// reused for every instance in the transition's source state.
  /// Order-implied conditions are skipped (see Transition).
  bool EvaluateTransition(const Transition& transition,
                          const MatchBuffer& buffer, const Event& event);

  /// Evaluates one variable condition (v.A φ v'.A') for the new binding of
  /// `bound_variable`, against every binding of the other variable.
  bool EvaluateVariableCondition(const Condition& condition,
                                 VariableId bound_variable,
                                 const MatchBuffer& buffer,
                                 const Event& event);

  /// Window-expiry sweep for events that skip the instance loop (§4.5
  /// pre-filtered). A filtered event cannot fire a transition, but it still
  /// advances time: instances whose window it exceeds must emit/expire NOW,
  /// or delivery is delayed until the next unfiltered event — unacceptable
  /// for streaming consumers that prune state against a time watermark.
  /// O(1) unless something actually expires (guarded by pending_floor_).
  void ExpireUpTo(Timestamp now, std::vector<Match>* out);

  /// Recomputes pending_floor_ from the live instance set.
  void RecomputePendingFloor();

  void EmitMatch(const AutomatonInstance& instance, std::vector<Match>* out);

  const SesAutomaton* automaton_;
  ExecutorOptions options_;
  /// Shared with sibling executors when handed in at construction (one
  /// filter per compiled plan), privately owned otherwise.
  std::shared_ptr<const EventPreFilter> filter_;
  std::vector<AutomatonInstance> instances_;  // Ω
  std::vector<AutomatonInstance> next_;       // Ω'
  ExecutorStats stats_;

  /// Sentinel: no instance holds a binding, nothing can expire.
  static constexpr Timestamp kNoPending =
      std::numeric_limits<Timestamp>::max();
  /// Lower bound on min over Ω of buffer.min_timestamp() (non-empty
  /// buffers only); exact after every processed event and every sweep.
  /// Lets ExpireUpTo skip the Ω scan when no window can have expired.
  Timestamp pending_floor_ = kNoPending;

  /// Per-event memo of constant-condition verdicts, indexed by
  /// Transition::id. An entry is valid when its epoch equals event_epoch_.
  struct ConstantVerdict {
    uint64_t epoch = 0;
    bool satisfied = false;
  };
  std::vector<ConstantVerdict> constant_memo_;
  uint64_t event_epoch_ = 0;
  ExecutionObserver* observer_ = nullptr;
};

}  // namespace ses

#endif  // SES_CORE_EXECUTOR_H_
