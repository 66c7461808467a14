#include "core/pred.h"

#include <algorithm>
#include <unordered_map>

#include "common/str_util.h"
#include "core/completed_schedule.h"
#include "core/service_table.h"

namespace tpm {

std::string PredOutcome::ToString() const {
  if (prefix_reducible) return "PRED";
  std::ostringstream oss;
  oss << "not PRED: prefix of length " << violating_prefix
      << " is not reducible";
  if (!cycle.empty()) {
    oss << " (cycle:";
    for (ProcessId pid : cycle) oss << " P" << pid;
    oss << ")";
  }
  return oss.str();
}

namespace {

// Decides RED (Def. 9) for every prefix of a schedule in one pass over its
// events: after Append(e_n), Reducible() answers for the prefix e_1..e_n
// exactly what AnalyzeRED(schedule.Prefix(n)) answers, without rebuilding
// the prefix.
//
// * The completed schedule of a prefix is its in-place expansion (which
//   only grows, so ScheduleCompleter builds it once) followed by the group
//   abort of the processes still active (recomputed per prefix from cached
//   completions).
// * Every activity is interned once as a token: dense process node, dense
//   service, and its (process, activity) chain, whose consecutive
//   original/inverse members are the candidates of the compensation rule.
// * Compensation pairs are cancelled in one sweep in S̃ order. At an inverse
//   whose chain's latest live token is its original, the pair cancels iff
//   no live token of another process with a conflicting service lies
//   between the two. That decision is final: every pair closing earlier
//   is already decided, and a blocker whose own inverse comes later is in
//   turn blocked by this inverse (same service as the original it blocks),
//   so the two never cancel. One sweep thus reaches the unique fixpoint of
//   reduction rules 1 and 2.
// * The survivors' process conflict graph is built from per-service
//   process bitsets and checked for a cycle.
// * Tokens before `settled_` are skipped. That boundary only passes a token
//   once its process has terminated and every token of every process before
//   the boundary lies before it. Then no compensation pair and no
//   conflicting pair of tokens spans the boundary in the wrong direction:
//   the survivors before it never change again, and every conflict edge
//   between the two sides points forward, so no cycle can cross it. A
//   settled part that was acyclic when the boundary passed it stays so.
class PrefixCertifier {
 public:
  PrefixCertifier(const ProcessSchedule& schedule, const ConflictSpec& spec)
      : completer_(schedule), services_(spec) {
    for (const auto& [pid, def] : schedule.processes()) {
      Status s = prefix_.AddProcess(pid, def);
      (void)s;  // cannot fail: defs were validated on original insertion
      node_of_.emplace(pid, static_cast<int>(prefix_state_.size()));
      prefix_state_.push_back(prefix_.StateOf(pid));
      expanded_state_.push_back(completer_.expanded().StateOf(pid));
    }
    last_token_.assign(prefix_state_.size(), -1);
    node_stamp_.assign(prefix_state_.size(), 0);
    graph_node_.assign(prefix_state_.size(), -1);
  }

  // Feeds the next event of the schedule.
  Status Append(const ScheduleEvent& event) {
    // An event of a terminated process (a malformed schedule) could revive
    // settled tokens: analyze every token from then on.
    auto note = [&](ProcessId pid) {
      auto it = node_of_.find(pid);
      if (it == node_of_.end() || expanded_state_[it->second]->IsActive() ||
          !settling_) {
        return;
      }
      settling_ = false;
      settled_ = 0;
    };
    if (event.type == EventType::kActivity) {
      note(event.act.process);
    } else if (event.type == EventType::kGroupAbort) {
      for (ProcessId pid : event.group) note(pid);
    } else {
      note(event.process);
    }
    // Like Prefix(), drop an event the prefix cannot take (one of a released
    // process); prefix_ also supplies the commit flags rule 3 reads.
    if (!prefix_.Append(event, /*enforce_legal=*/false).ok()) {
      return Status::OK();
    }
    const size_t before = completer_.expanded().size();
    TPM_RETURN_IF_ERROR(completer_.Add(event));
    const std::vector<ScheduleEvent>& events = completer_.expanded().events();
    for (size_t i = before; i < events.size(); ++i) {
      if (events[i].type == EventType::kActivity &&
          !events[i].aborted_invocation) {
        AddToken(events[i].act);
        last_token_[tokens_.back().node] = static_cast<int>(tokens_.size()) - 1;
      }
    }
    return Status::OK();
  }

  // Whether the prefix fed so far is reducible.
  Result<bool> Reducible() {
    TPM_ASSIGN_OR_RETURN(std::vector<ActivityInstance> tail,
                         completer_.ActiveTail());
    const size_t expanded_tokens = tokens_.size();
    for (const ActivityInstance& inst : tail) AddToken(inst);
    CancelCompensationPairs();
    const bool acyclic = ResidualAcyclic();
    tokens_.resize(expanded_tokens);
    if (acyclic) Settle();
    return acyclic;
  }

 private:
  struct Token {
    int node;
    int chain;
    bool inverse;
  };
  // One activity of one process: its occurrences in S̃ (originals and
  // inverses) form a chain.
  struct Chain {
    int node;
    int service;
    bool effect_free;
  };
  struct ChainKeyHash {
    size_t operator()(const std::pair<int64_t, int64_t>& key) const {
      return static_cast<size_t>(key.first) * 0x9E3779B97F4A7C15ULL ^
             static_cast<size_t>(key.second);
    }
  };

  void AddToken(const ActivityInstance& inst) {
    auto [it, inserted] = chain_of_.emplace(
        std::make_pair(inst.process.value(), inst.activity.value()),
        static_cast<int>(chains_.size()));
    if (inserted) {
      const int service =
          services_.Intern(completer_.expanded().ServiceOf(inst));
      chains_.push_back(Chain{node_of_.at(inst.process), service,
                              services_.IsEffectFree(service)});
      chain_stack_.emplace_back();
      chain_stamp_.push_back(0);
      if (services_.size() > by_service_.size()) {
        by_service_.resize(services_.size());
        service_stamp_.resize(services_.size(), 0);
        seen_stamp_.resize(services_.size(), 0);
        seen_row_.resize(services_.size(), 0);
      }
    }
    tokens_.push_back(
        Token{chains_[it->second].node, it->second, inst.inverse});
  }

  // Moves settled_ past every token it may pass (see the class comment).
  void Settle() {
    if (!settling_) return;
    while (scan_ < tokens_.size()) {
      const int node = tokens_[scan_].node;
      if (expanded_state_[node]->IsActive()) break;
      reach_ = std::max(reach_, last_token_[node]);
      ++scan_;
      if (static_cast<int>(scan_) > reach_) settled_ = scan_;
    }
  }

  // Rule 3 removes effect-free activities of processes that did not commit.
  bool Present(const Token& t) const {
    return !chains_[t.chain].effect_free ||
           prefix_state_[t.node]->outcome() == ProcessOutcome::kCommitted;
  }

  // Per-sweep lists, cleared on first use in a sweep.
  std::vector<int>& ChainStack(int chain) {
    if (chain_stamp_[chain] != sweep_stamp_) {
      chain_stamp_[chain] = sweep_stamp_;
      chain_stack_[chain].clear();
    }
    return chain_stack_[chain];
  }
  std::vector<int>& ServiceTokens(int service) {
    if (service_stamp_[service] != sweep_stamp_) {
      service_stamp_[service] = sweep_stamp_;
      by_service_[service].clear();
    }
    return by_service_[service];
  }

  // Whether a live token of another process, on a service conflicting with
  // the original at `x`, lies between `x` and the current sweep position.
  bool Blocked(int x) {
    const int node = tokens_[x].node;
    const int service = chains_[tokens_[x].chain].service;
    for (int partner : services_.PartnersOf(service)) {
      std::vector<int>& swept = ServiceTokens(partner);
      for (size_t i = swept.size(); i-- > 0;) {
        const int k = swept[i];
        if (k <= x) break;
        if (!live_[k]) {
          if (i + 1 == swept.size()) swept.pop_back();  // dead for good
          continue;
        }
        if (tokens_[k].node != node) return true;
      }
    }
    return false;
  }

  void CancelCompensationPairs() {
    const size_t n = tokens_.size();
    live_.resize(n);
    for (size_t k = settled_; k < n; ++k) live_[k] = Present(tokens_[k]);
    ++sweep_stamp_;
    for (size_t k = settled_; k < n; ++k) {
      if (!live_[k]) continue;
      const Token& t = tokens_[k];
      std::vector<int>& chain = ChainStack(t.chain);
      if (t.inverse && !chain.empty() && !tokens_[chain.back()].inverse &&
          !Blocked(chain.back())) {
        live_[chain.back()] = false;
        live_[k] = false;
        chain.pop_back();
        continue;
      }
      chain.push_back(static_cast<int>(k));
      ServiceTokens(chains_[t.chain].service).push_back(static_cast<int>(k));
    }
  }

  // Whether the live tokens' process conflict graph is acyclic: an edge
  // P -> Q for every conflicting pair of a P token before a Q token.
  bool ResidualAcyclic() {
    const uint64_t stamp = ++graph_stamp_;
    // Number the processes that can take part in an edge densely, so the
    // bitsets span only them, not every process of the schedule.
    size_t nodes = 0;
    for (size_t k = settled_; k < tokens_.size(); ++k) {
      if (!live_[k] || !HasPartners(tokens_[k])) continue;
      const int node = tokens_[k].node;
      if (node_stamp_[node] != stamp) {
        node_stamp_[node] = stamp;
        graph_node_[node] = static_cast<int>(nodes++);
      }
    }
    const size_t words = (nodes + 63) / 64;
    pred_.assign(nodes * words, 0);
    if (succ_.size() < nodes) succ_.resize(nodes);
    for (size_t q = 0; q < nodes; ++q) succ_[q].clear();
    indegree_.assign(nodes, 0);
    // seen_ holds a row per service: the processes with an earlier live
    // token conflicting with it.
    seen_.clear();
    for (size_t k = settled_; k < tokens_.size(); ++k) {
      if (!live_[k] || !HasPartners(tokens_[k])) continue;
      const int service = chains_[tokens_[k].chain].service;
      const int q = graph_node_[tokens_[k].node];
      if (seen_stamp_[service] == stamp) {
        const uint64_t* seen = &seen_[seen_row_[service] * words];
        uint64_t* pred = &pred_[q * words];
        for (size_t w = 0; w < words; ++w) {
          uint64_t fresh = seen[w] & ~pred[w];
          if (w == static_cast<size_t>(q) / 64) {
            fresh &= ~(uint64_t{1} << (q % 64));
          }
          pred[w] |= fresh;
          while (fresh != 0) {
            const int p = static_cast<int>(w * 64) + __builtin_ctzll(fresh);
            fresh &= fresh - 1;
            succ_[p].push_back(q);
            ++indegree_[q];
          }
        }
      }
      for (int partner : services_.PartnersOf(service)) {
        if (seen_stamp_[partner] != stamp) {
          seen_stamp_[partner] = stamp;
          seen_row_[partner] = seen_.size() / words;
          seen_.resize(seen_.size() + words, 0);
        }
        seen_[seen_row_[partner] * words + q / 64] |= uint64_t{1} << (q % 64);
      }
    }
    // Kahn: the graph is acyclic iff every node can be peeled.
    ready_.clear();
    for (size_t q = 0; q < nodes; ++q) {
      if (indegree_[q] == 0) ready_.push_back(static_cast<int>(q));
    }
    size_t peeled = 0;
    while (peeled < ready_.size()) {
      const int node = ready_[peeled++];
      for (int next : succ_[node]) {
        if (--indegree_[next] == 0) ready_.push_back(next);
      }
    }
    return peeled == nodes;
  }

  bool HasPartners(const Token& t) const {
    return !services_.PartnersOf(chains_[t.chain].service).empty();
  }

  ScheduleCompleter completer_;
  ServiceTable services_;
  ProcessSchedule prefix_;
  std::unordered_map<ProcessId, int> node_of_;
  std::vector<const ProcessExecutionState*> prefix_state_;    // by node
  std::vector<const ProcessExecutionState*> expanded_state_;  // by node
  std::vector<int> last_token_;  // by node: its last expanded token

  std::vector<Token> tokens_;  // S̃ order: expansion, then the tail
  std::vector<Chain> chains_;
  std::unordered_map<std::pair<int64_t, int64_t>, int, ChainKeyHash>
      chain_of_;  // (pid, activity) -> chain

  size_t settled_ = 0;     // tokens before it are never analyzed again
  bool settling_ = true;   // false once an event hit a terminated process
  size_t scan_ = 0;        // Settle() resumes here
  int reach_ = -1;         // last token of any process scanned so far

  // Per-prefix scratch, reused.
  std::vector<bool> live_;  // present and not cancelled
  uint64_t sweep_stamp_ = 0;
  // The live swept tokens of each chain (a stack: its top is the candidate
  // original of the chain's next inverse) and of each service.
  std::vector<std::vector<int>> chain_stack_;
  std::vector<uint64_t> chain_stamp_;
  std::vector<std::vector<int>> by_service_;
  std::vector<uint64_t> service_stamp_;
  // The conflict graph of one prefix, over the processes it involves.
  std::vector<uint64_t> node_stamp_;  // by node
  std::vector<int> graph_node_;       // by node: its graph index
  std::vector<uint64_t> seen_;        // rows of graph-node bits
  std::vector<uint64_t> seen_stamp_;  // by service
  std::vector<size_t> seen_row_;      // by service
  std::vector<uint64_t> pred_;        // by graph node, bits of its preds
  std::vector<std::vector<int>> succ_;
  std::vector<int> indegree_;
  std::vector<int> ready_;
  uint64_t graph_stamp_ = 0;
};

}  // namespace

Result<PredOutcome> AnalyzePRED(const ProcessSchedule& schedule,
                                const ConflictSpec& spec) {
  PredOutcome outcome;
  PrefixCertifier certifier(schedule, spec);
  // Every prefix, including the empty one and the full schedule, must be
  // reducible. Empty prefixes are trivially reducible; start at length 1.
  for (size_t n = 1; n <= schedule.size(); ++n) {
    TPM_RETURN_IF_ERROR(certifier.Append(schedule.events()[n - 1]));
    TPM_ASSIGN_OR_RETURN(bool reducible, certifier.Reducible());
    if (reducible) continue;
    // The witness: the cycle AnalyzeRED finds on that one prefix.
    TPM_ASSIGN_OR_RETURN(ReductionOutcome red,
                         AnalyzeRED(schedule.Prefix(n), spec));
    if (red.reducible) {
      return Status::Internal(StrCat("PRED certifier and AnalyzeRED disagree "
                                     "on the prefix of length ", n));
    }
    outcome.prefix_reducible = false;
    outcome.violating_prefix = n;
    outcome.cycle = red.cycle;
    return outcome;
  }
  outcome.prefix_reducible = true;
  return outcome;
}

Result<bool> IsPRED(const ProcessSchedule& schedule,
                    const ConflictSpec& spec) {
  TPM_ASSIGN_OR_RETURN(PredOutcome outcome, AnalyzePRED(schedule, spec));
  return outcome.prefix_reducible;
}

}  // namespace tpm
