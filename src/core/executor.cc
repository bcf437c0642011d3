#include "core/executor.h"

#include <algorithm>
#include <utility>

#include "storage/checkpoint.h"

namespace ses {

SesExecutor::SesExecutor(const SesAutomaton* automaton,
                         ExecutorOptions options)
    : SesExecutor(automaton, options, nullptr) {}

SesExecutor::SesExecutor(const SesAutomaton* automaton,
                         ExecutorOptions options,
                         std::shared_ptr<const EventPreFilter> filter)
    : automaton_(automaton),
      options_(options),
      filter_(filter != nullptr
                  ? std::move(filter)
                  : std::make_shared<const EventPreFilter>(
                        automaton->pattern())),
      constant_memo_(static_cast<size_t>(automaton->num_transitions())) {}

void SesExecutor::Consume(const Event& event, std::vector<Match>* out) {
  ++stats_.events_seen;
  if (options_.enable_prefilter && !filter_->ShouldProcess(event)) {
    // §4.5: the event satisfies no constant condition, so it cannot fire
    // any transition; skip the transition evaluation over Ω entirely. It
    // still advances time, though — instances whose window it exceeds are
    // emitted/expired now, so delivery latency and the executor's pending
    // horizon never depend on how many events the filter drops.
    ++stats_.events_filtered;
    if (observer_ != nullptr) observer_->OnEvent(event, /*filtered=*/true);
    ExpireUpTo(event.timestamp(), out);
    return;
  }
  ++stats_.events_processed;
  if (observer_ != nullptr) observer_->OnEvent(event, /*filtered=*/false);
  ++event_epoch_;

  const Duration window = automaton_->window();

  // Line 4 of Algorithm 1: a fresh instance in the start state. It dies in
  // ConsumeOnInstance unless this event fires one of its transitions.
  instances_.push_back(
      AutomatonInstance{automaton_->start_state(), MatchBuffer()});

  next_.clear();
  for (AutomatonInstance& instance : instances_) {
    if (!instance.buffer.empty() &&
        event.timestamp() - instance.buffer.min_timestamp() > window) {
      // Lines 7-10: the window expired; an accepting instance reports its
      // buffer as a matching substitution, the instance is removed.
      ++stats_.instances_expired;
      bool accepted = automaton_->IsAccepting(instance.state);
      if (observer_ != nullptr) observer_->OnExpired(instance, accepted);
      if (accepted) {
        EmitMatch(instance, out);
      }
      continue;
    }
    ConsumeOnInstance(instance, event);
  }
  std::swap(instances_, next_);
  stats_.max_simultaneous_instances =
      std::max(stats_.max_simultaneous_instances,
               static_cast<int64_t>(instances_.size()));
  RecomputePendingFloor();
}

void SesExecutor::ExpireUpTo(Timestamp now, std::vector<Match>* out) {
  if (pending_floor_ == kNoPending ||
      now - pending_floor_ <= automaton_->window()) {
    return;
  }
  const Duration window = automaton_->window();
  size_t kept = 0;
  for (AutomatonInstance& instance : instances_) {
    if (!instance.buffer.empty() &&
        now - instance.buffer.min_timestamp() > window) {
      ++stats_.instances_expired;
      bool accepted = automaton_->IsAccepting(instance.state);
      if (observer_ != nullptr) observer_->OnExpired(instance, accepted);
      if (accepted) {
        EmitMatch(instance, out);
      }
      continue;
    }
    instances_[kept++] = std::move(instance);
  }
  instances_.resize(kept);
  RecomputePendingFloor();
}

void SesExecutor::RecomputePendingFloor() {
  pending_floor_ = kNoPending;
  for (const AutomatonInstance& instance : instances_) {
    if (instance.buffer.empty()) continue;
    pending_floor_ = std::min(pending_floor_, instance.buffer.min_timestamp());
  }
}

void SesExecutor::ConsumeOnInstance(AutomatonInstance& instance,
                                    const Event& event) {
  bool fired = false;
  for (const Transition& transition : automaton_->outgoing(instance.state)) {
    ++stats_.transitions_evaluated;
    if (!EvaluateTransition(transition, instance.buffer, event)) continue;
    fired = true;
    ++stats_.transitions_fired;
    ++stats_.instances_created;
    next_.push_back(AutomatonInstance{
        transition.to, instance.buffer.Extend(transition.variable, event)});
    if (observer_ != nullptr) {
      observer_->OnTransition(instance, transition, event, next_.back());
    }
  }
  if (!fired && instance.state != automaton_->start_state()) {
    // No transition fired: the event is ignored and the instance survives
    // unchanged (skip-till-next-match). A fresh start-state instance that
    // fired nothing is discarded (Algorithm 2, lines 8-10).
    if (observer_ != nullptr) observer_->OnIgnored(instance, event);
    next_.push_back(std::move(instance));
  }
}

bool SesExecutor::EvaluateTransition(const Transition& transition,
                                     const MatchBuffer& buffer,
                                     const Event& event) {
  // Constant conditions (conditions[0, num_constant)) depend only on the
  // event: their verdict is computed once per event per transition and
  // reused across instances.
  if (transition.num_constant > 0) {
    ConstantVerdict& verdict =
        constant_memo_[static_cast<size_t>(transition.id)];
    if (verdict.epoch != event_epoch_) {
      verdict.epoch = event_epoch_;
      verdict.satisfied = true;
      for (int i = 0; i < transition.num_constant; ++i) {
        ++stats_.conditions_evaluated;
        if (!transition.conditions[static_cast<size_t>(i)].EvaluateConstant(
                event)) {
          verdict.satisfied = false;
          break;
        }
      }
    }
    if (!verdict.satisfied) return false;
  }
  // Order-implied conditions (conditions[num_evaluated, size())) hold by
  // construction: every bound event is older than `event`.
  for (size_t i = static_cast<size_t>(transition.num_constant);
       i < static_cast<size_t>(transition.num_evaluated); ++i) {
    if (!EvaluateVariableCondition(transition.conditions[i],
                                   transition.variable, buffer, event)) {
      return false;
    }
  }
  return true;
}

bool SesExecutor::EvaluateVariableCondition(const Condition& condition,
                                            VariableId bound_variable,
                                            const MatchBuffer& buffer,
                                            const Event& event) {
  VariableId other = *condition.OtherVariable(bound_variable);
  if (other == bound_variable) {
    // Self-referential condition (v.A φ v.A'): under the decomposition
    // semantics of §3.2 both occurrences denote the same event.
    ++stats_.conditions_evaluated;
    return condition.EvaluateVariable(event, event);
  }
  // Evaluate against every binding of the other variable (group variables
  // may have several; the decomposition instantiates the condition once
  // per binding).
  bool ok = true;
  bool lhs_is_bound_var = condition.lhs().variable == bound_variable;
  buffer.ForEach([&](VariableId v, const Event& bound) {
    if (!ok || v != other) return;
    ++stats_.conditions_evaluated;
    ok = lhs_is_bound_var ? condition.EvaluateVariable(event, bound)
                          : condition.EvaluateVariable(bound, event);
  });
  return ok;
}

void SesExecutor::EmitMatch(const AutomatonInstance& instance,
                            std::vector<Match>* out) {
  ++stats_.matches_emitted;
  out->push_back(Match(instance.buffer.ToBindings()));
  if (observer_ != nullptr) observer_->OnMatch(out->back());
}

void SesExecutor::Flush(std::vector<Match>* out) {
  for (const AutomatonInstance& instance : instances_) {
    if (instance.buffer.empty()) continue;
    ++stats_.instances_expired;
    bool accepted = automaton_->IsAccepting(instance.state);
    if (observer_ != nullptr) observer_->OnExpired(instance, accepted);
    if (accepted) {
      EmitMatch(instance, out);
    }
  }
  instances_.clear();
  next_.clear();
  pending_floor_ = kNoPending;
}

void SesExecutor::Reset() {
  instances_.clear();
  next_.clear();
  pending_floor_ = kNoPending;
  stats_ = ExecutorStats{};
}

void SesExecutor::Checkpoint(std::string* out) const {
  const Schema& schema = automaton_->pattern().schema();
  storage::PutCount(out, instances_.size());
  for (const AutomatonInstance& instance : instances_) {
    storage::PutSigned(out, instance.state);
    // Bindings in chronological order, so Restore can rebuild the buffer
    // with the same Extend() chain. Structural sharing across instances is
    // not preserved (it only saves memory, never changes semantics).
    std::vector<Binding> bindings = instance.buffer.ToBindings();
    storage::PutCount(out, bindings.size());
    for (const Binding& binding : bindings) {
      storage::PutSigned(out, binding.variable);
      storage::PutEventRecord(out, binding.event, schema);
    }
  }
  storage::PutSigned(out, stats_.events_seen);
  storage::PutSigned(out, stats_.events_filtered);
  storage::PutSigned(out, stats_.events_processed);
  storage::PutSigned(out, stats_.instances_created);
  storage::PutSigned(out, stats_.instances_expired);
  storage::PutSigned(out, stats_.max_simultaneous_instances);
  storage::PutSigned(out, stats_.transitions_evaluated);
  storage::PutSigned(out, stats_.transitions_fired);
  storage::PutSigned(out, stats_.conditions_evaluated);
  storage::PutSigned(out, stats_.matches_emitted);
}

Status SesExecutor::Restore(const char** p, const char* limit,
                            Timestamp latest) {
  Reset();
  const Schema& schema = automaton_->pattern().schema();
  uint64_t num_instances = 0;
  SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_instances));
  instances_.reserve(num_instances);
  for (uint64_t i = 0; i < num_instances; ++i) {
    int64_t state = 0;
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &state));
    if (state < 0 || state >= automaton_->num_states()) {
      Reset();
      return Status::Corruption(
          "checkpoint instance state outside the automaton");
    }
    uint64_t num_bindings = 0;
    SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_bindings));
    Timestamp previous = 0;
    MatchBuffer buffer;
    for (uint64_t b = 0; b < num_bindings; ++b) {
      int64_t variable = 0;
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &variable));
      if (variable < 0 || variable >= automaton_->pattern().num_variables()) {
        Reset();
        return Status::Corruption(
            "checkpoint binding of a variable outside the pattern");
      }
      Event event;
      if (Status s = storage::GetEventRecord(p, limit, schema, &event);
          !s.ok()) {
        Reset();
        return s;
      }
      // The executor relies on bindings in strictly increasing time order
      // (order-implied conditions are never evaluated, min_timestamp() is
      // the first binding's), so a restored buffer must have it.
      if ((!buffer.empty() && event.timestamp() <= previous) ||
          event.timestamp() > latest) {
        Reset();
        return Status::Corruption(
            "checkpoint match buffer out of time order");
      }
      previous = event.timestamp();
      buffer = buffer.Extend(static_cast<VariableId>(variable), event);
    }
    instances_.push_back(
        AutomatonInstance{static_cast<StateId>(state), std::move(buffer)});
  }
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.events_seen));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.events_filtered));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.events_processed));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.instances_created));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.instances_expired));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(p, limit, &stats_.max_simultaneous_instances));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(p, limit, &stats_.transitions_evaluated));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.transitions_fired));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(p, limit, &stats_.conditions_evaluated));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.matches_emitted));
  RecomputePendingFloor();
  return Status::OK();
}

}  // namespace ses
