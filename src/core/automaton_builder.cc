#include "core/automaton_builder.h"

#include <atomic>

#include "common/bits.h"
#include "common/logging.h"

namespace ses {

namespace {

std::atomic<int64_t> g_builds_started{0};

/// True if `c`, on a transition binding `variable` out of a state whose
/// bound variables are `bound_mask`, only says that an event bound earlier
/// is earlier: both sides are the plain timestamp T, the other variable v'
/// is bound in the source state, and the operator normalizes to
/// v'.T < v.T, v'.T <= v.T or v'.T != v.T. Bindings arrive in strictly
/// increasing timestamp order, so such a condition holds for every buffer
/// the executor can hold and is never evaluated (see Transition).
bool IsOrderImplied(const Condition& c, VariableId variable,
                    VariableMask bound_mask) {
  if (c.is_constant_condition() || c.has_offset() ||
      !c.lhs().is_timestamp() || !c.rhs_ref().is_timestamp()) {
    return false;
  }
  VariableId other = *c.OtherVariable(variable);
  if (other == variable || !bits::Test(bound_mask, other)) return false;
  ComparisonOp op =
      c.lhs().variable == other ? c.op() : MirrorComparison(c.op());
  return op == ComparisonOp::kLt || op == ComparisonOp::kLe ||
         op == ComparisonOp::kNe;
}

/// Fills t->conditions with Θδ for the transition binding t->variable out
/// of a state whose bound variables are `bound_mask` (= prefix of preceding
/// sets plus the subset S of the current set): all conditions that
/// constrain the variable against a constant, against itself, or against a
/// bound variable (§4.2.1), then the concatenation constraints v'.T < v.T
/// for every variable v' in `ordering_mask` (§4.2.2). Orders them into the
/// three ranges documented on Transition.
void CollectConditions(const Pattern& pattern, VariableMask bound_mask,
                       VariableMask ordering_mask, Transition* t) {
  const VariableId variable = t->variable;
  std::vector<Condition>& conditions = t->conditions;
  VariableMask allowed = bits::Set(bound_mask, variable);
  // Constant conditions first: they depend only on the input event, so the
  // executor can evaluate them once per (event, transition) instead of per
  // instance and reject cheaply.
  for (const Condition& c : pattern.conditions()) {
    if (c.References(variable) && c.is_constant_condition()) {
      conditions.push_back(c);
    }
  }
  t->num_constant = static_cast<int>(conditions.size());
  // Then the variable conditions: first those the executor checks, then
  // the order-implied ones.
  auto collect_variable_conditions = [&](bool implied) {
    for (const Condition& c : pattern.conditions()) {
      if (!c.References(variable) || c.is_constant_condition()) continue;
      VariableId other = *c.OtherVariable(variable);
      if (bits::Test(allowed, other) &&
          IsOrderImplied(c, variable, bound_mask) == implied) {
        conditions.push_back(c);
      }
    }
  };
  collect_variable_conditions(false);
  t->num_evaluated = static_cast<int>(conditions.size());
  collect_variable_conditions(true);
  // The concatenation constraints are order-implied by construction.
  bits::ForEachBit(ordering_mask, [&](int prev) {
    AttributeRef lhs{prev, AttributeRef::kTimestampAttribute};
    AttributeRef rhs{variable, AttributeRef::kTimestampAttribute};
    conditions.emplace_back(lhs, ComparisonOp::kLt, rhs);
  });
}

}  // namespace

int64_t AutomatonBuilder::builds_started() {
  return g_builds_started.load(std::memory_order_relaxed);
}

SesAutomaton AutomatonBuilder::Build(const Pattern& pattern) {
  g_builds_started.fetch_add(1, std::memory_order_relaxed);
  SesAutomaton automaton;
  automaton.pattern_ = pattern;

  auto intern_state = [&automaton](VariableMask mask) -> StateId {
    auto [it, inserted] = automaton.state_index_.try_emplace(
        mask, static_cast<StateId>(automaton.state_masks_.size()));
    if (inserted) {
      automaton.state_masks_.push_back(mask);
      automaton.outgoing_.emplace_back();
    }
    return it->second;
  };

  // States. Without optional variables these are, per set i, the masks
  // prefix(i) | S for S ⊆ Vi (the paper's construction). With optional
  // variables every earlier set j only needs its REQUIRED variables bound
  // (optional ones may or may not be), so states are enumerated as one
  // portion per set: a later set may hold variables only if every earlier
  // portion covers its set's required mask.
  {
    // Recursive product over sets; `prefix_ok` tells whether every chosen
    // portion so far covers its required mask (otherwise later portions
    // must stay empty).
    auto enumerate = [&](auto&& self, int i, VariableMask mask,
                         bool prefix_ok) -> void {
      if (i == pattern.num_sets()) {
        intern_state(mask);
        return;
      }
      VariableMask set_mask = pattern.set_mask(i);
      VariableMask s = 0;
      while (true) {
        if (s == 0 || prefix_ok) {
          bool next_ok =
              prefix_ok && bits::IsSubset(pattern.required_mask(i), s);
          self(self, i + 1, mask | s, next_ok);
        }
        if (s == set_mask) break;
        s = (s - set_mask) & set_mask;  // next submask, increasing order
      }
    };
    enumerate(enumerate, 0, 0, true);
  }

  automaton.start_ = 0;
  SES_CHECK(automaton.state_masks_[0] == 0);
  {
    VariableMask full = pattern.prefix_mask(pattern.num_sets() - 1) |
                        pattern.set_mask(pattern.num_sets() - 1);
    automaton.accepting_ = automaton.state_index_.at(full);
  }
  // A state accepts when all required variables are bound. Patterns
  // without optional variables have exactly one accepting state (the full
  // mask).
  automaton.is_accepting_.resize(automaton.state_masks_.size(), false);
  for (size_t q = 0; q < automaton.state_masks_.size(); ++q) {
    automaton.is_accepting_[q] =
        bits::IsSubset(pattern.required_all_mask(), automaton.state_masks_[q]);
  }

  // Transitions: for each state M and each set k that M may be working on
  // (no variables bound in later sets; every earlier set's required
  // variables bound), bind an unbound variable of set k, and loop on the
  // group variables of set k that are bound in M.
  for (StateId from = 0; from < automaton.num_states(); ++from) {
    VariableMask state_mask = automaton.state_masks_[from];
    for (int k = 0; k < pattern.num_sets(); ++k) {
      VariableMask set_mask = pattern.set_mask(k);
      // Later sets must be untouched.
      bool later_empty = true;
      for (int j = k + 1; j < pattern.num_sets(); ++j) {
        if ((state_mask & pattern.set_mask(j)) != 0) later_empty = false;
      }
      if (!later_empty) continue;
      // Earlier sets must have their required variables bound.
      bool earlier_complete = true;
      for (int j = 0; j < k; ++j) {
        if (!bits::IsSubset(pattern.required_mask(j), state_mask)) {
          earlier_complete = false;
        }
      }
      if (!earlier_complete) continue;

      VariableMask s = state_mask & set_mask;

      // Forward transitions: bind an unbound variable of set k.
      bits::ForEachBit(set_mask & ~s, [&](int v) {
        Transition t;
        t.from = from;
        t.to = automaton.state_index_.at(bits::Set(state_mask, v));
        t.variable = v;
        // First variable of set k: events bound to preceding sets must be
        // strictly earlier (concatenation constraints, §4.2.2). Only
        // variables actually bound in M can be constrained — unbound
        // optional variables of earlier sets have no events to compare.
        VariableMask ordering_mask =
            s == 0 ? state_mask & pattern.prefix_mask(k) : 0;
        CollectConditions(pattern, state_mask, ordering_mask, &t);
        automaton.outgoing_[from].push_back(std::move(t));
      });

      // Loop transitions: group variables of set k bound in M
      // (q ∪ {v+} = q). s != 0 only for the last touched set.
      bits::ForEachBit(s, [&](int v) {
        if (!pattern.variable(v).is_group) return;
        Transition t;
        t.from = from;
        t.to = from;
        t.variable = v;
        CollectConditions(pattern, state_mask, 0, &t);
        automaton.outgoing_[from].push_back(std::move(t));
      });
    }
  }

  // Dense transition ids for the executor's per-event memo tables.
  int next_id = 0;
  for (auto& transitions : automaton.outgoing_) {
    for (Transition& t : transitions) t.id = next_id++;
  }

  return automaton;
}

}  // namespace ses
