#include "src/core/pa_given.hpp"

#include <algorithm>

namespace pw::core {

namespace {

enum : std::uint16_t {
  kInfo = 1,       // announce_labels: (part, sub-part) to neighbors (KT0)
  kToken = 2,      // wave token along sub-part trees / cross edges
  kBlockUp = 3,    // BlockRoute climb toward the block root
  kBlockDown = 4,  // BlockRoute broadcast down block edges
  kAdopt = 5,      // "I am your wave child" ack
  kNack = 6,       // Algorithm 2 objection from an uninformed node
  kGather = 7,     // convergecast value up the wave tree
  kResult = 8,     // broadcast f(Pi) down the wave tree
};

// Wave state of one (node, part) participation while the wave runs; the
// wave's end records it into WaveTrees.
struct Entry {
  int part = -1;
  int parent_port = -1;  // -1 at the wave origin (the part leader)
  bool up_done = false;
  bool down_done = false;
  bool is_block_root = false;
  std::vector<int> children_ports;
};

// Outgoing message queue of one node. The CONGEST constraint allows one
// message per port per round; flush() picks, per port, the item with the
// smallest (priority, sequence) pair — block packets carry their block
// root's depth as priority, realizing Lemma 4.2's scheduling rule.
struct OutItem {
  int port;
  std::int64_t prio;
  std::uint64_t seq;
  sim::Msg msg;
};

class Waveguide {
 public:
  // Waves the parts with active[i] != 0 (all when empty) that have no tree
  // in `trees` and records theirs; gather and scatter run on every tree in
  // `trees`.
  Waveguide(sim::Engine& eng, const graph::Partition& p,
            const shortcut::SubPartDivision& d, const NeighborLabels& labels,
            const shortcut::Shortcut& s, const tree::SpanningForest& t,
            const PaGivenConfig& cfg, WaveTrees& trees,
            const std::vector<char>& active)
      : eng_(eng),
        g_(eng.graph()),
        p_(p),
        d_(d),
        labels_(labels),
        s_(s),
        t_(t),
        cfg_(cfg),
        active_(active.empty() ? std::vector<char>(p.num_parts, 1) : active),
        trees_(trees),
        outbox_(g_.n()),
        seq_(g_.n(), 0) {
    PW_CHECK(p.has_leaders());
    labels.check_matches(g_, p);
    trees.check_matches(g_, p);
    PW_CHECK_MSG(static_cast<int>(active_.size()) == p.num_parts,
                 "active mask has %zu entries for %d parts", active_.size(),
                 p.num_parts);
    for (int i = 0; i < p.num_parts; ++i)
      if (trees.recorded[i]) active_[i] = 0;
  }

  // --- Stage 1: wave (Algorithm 1 lines 1-20). -----------------------------
  // Executed as budget-limited Engine::run segments between delay groups, so
  // the per-node wave steps dispatch shard-parallel (DESIGN.md §7); the
  // delay bookkeeping — waking the next leaders, charging idle gaps — stays
  // in sequential inter-segment code.
  // Accounting is identical to a manual one-round-at-a-time loop: run()
  // executes a round exactly when the network isn't idle, and the skipped
  // rounds of an idle gap are genuine CONGEST rounds, charged as before.
  // Every part draws its delay, active or not, so a part's delay does not
  // depend on the mask; only active parts' leaders start a wave. The wave
  // ends by recording the active parts' trees, which sends nothing.
  void run_wave() {
    if (std::none_of(active_.begin(), active_.end(), [](char a) { return a; }))
      return;
    entries_.assign(g_.n(), {});
    pending_origin_.assign(g_.n(), 0);
    precompute_hi_children();
    struct Start {
      int delay;
      int leader;
    };
    std::vector<Start> starts;
    Rng rng(cfg_.seed);
    for (int i = 0; i < p_.num_parts; ++i) {
      int delay = 0;
      if (cfg_.mode == PaMode::Randomized && cfg_.delay_range > 1)
        delay = static_cast<int>(rng.next_below(cfg_.delay_range));
      if (active_[i]) starts.push_back({delay, p_.leader[i]});
    }
    std::sort(starts.begin(), starts.end(),
              [](const Start& a, const Start& b) { return a.delay < b.delay; });

    const auto step = [this](int v) { process_wave(v); };
    std::size_t next = 0;
    std::uint64_t round = 0;
    while (next < starts.size()) {
      while (next < starts.size() &&
             static_cast<std::uint64_t>(starts[next].delay) <= round) {
        pending_origin_[starts[next].leader] = 1;
        eng_.wake(starts[next].leader);
        ++next;
      }
      if (next >= starts.size()) break;
      // Run until the next scheduled start (or idle, whichever comes first).
      const auto budget = static_cast<std::uint64_t>(starts[next].delay) - round;
      const std::uint64_t executed = eng_.run(step, budget);
      round += executed;
      if (executed < budget) {
        // Nothing in flight; skip ahead to the next scheduled start. The
        // skipped rounds are genuine CONGEST rounds and stay counted.
        eng_.charge_rounds(budget - executed);
        round = static_cast<std::uint64_t>(starts[next].delay);
      }
    }
    eng_.run(step);  // every wave started; drain to quiescence
    record();
  }

  // --- Stage 2: gather (line 21). ------------------------------------------
  // Runs on every tree in trees_. contribution(v, k) supplies the value of
  // v's entry k; members typically contribute val(v), Steiner nodes the
  // identity.
  template <class ContributionFn>
  std::vector<std::uint64_t> run_gather(const Agg& agg, ContributionFn&& contribution) {
    const WaveTrees& tr = trees_;
    std::vector<std::uint64_t> origin_value(p_.num_parts, agg.identity);
    // Per entry: the running aggregate, and the children still to report
    // (-1 once the entry has reported to its parent).
    std::vector<std::uint64_t> acc(tr.part.size());
    std::vector<int> pending(tr.part.size());
    for (int v = 0; v < g_.n(); ++v) {
      for (int k = tr.offset[v]; k < tr.offset[v + 1]; ++k) {
        pending[k] = static_cast<int>(tr.children(k).size());
        acc[k] = contribution(v, k);
      }
      if (tr.offset[v] < tr.offset[v + 1]) eng_.wake(v);
    }
    eng_.run([&](int v) {
      for (const auto& in : eng_.inbox(v)) {
        if (in.msg.tag != kGather) continue;
        const int k = tr.find(v, static_cast<int>(in.msg.a));
        PW_CHECK(k >= 0);
        acc[k] = agg(acc[k], in.msg.b);
        --pending[k];
        PW_CHECK(pending[k] >= 0);
      }
      for (int k = tr.offset[v]; k < tr.offset[v + 1]; ++k) {
        if (pending[k] != 0) continue;
        pending[k] = -1;
        const int part = tr.part[k];
        if (tr.parent_port[k] >= 0) {
          enqueue(v, tr.parent_port[k], part,
                  sim::Msg{kGather, static_cast<std::uint64_t>(part), acc[k], 0});
        } else {
          // Uniquely-owned slot (§7 cookbook): only the wave origin — the
          // part's leader, one fixed node — ever has parent_port < 0 for
          // this part, so the write is single-writer under parallel
          // dispatch.
          origin_value[part] = acc[k];
        }
      }
      flush(v);
    });
    return origin_value;
  }

  // --- Stage 3: scatter (line 22). ------------------------------------------
  // Runs on every tree in trees_. Returns the value delivered to each node
  // (part members only).
  std::vector<std::uint64_t> run_scatter(const std::vector<std::uint64_t>& origin_value,
                                         std::uint64_t absent) {
    const WaveTrees& tr = trees_;
    std::vector<std::uint64_t> delivered(g_.n(), absent);
    const auto forward = [&](int v, int k, std::uint64_t value) {
      const auto part = static_cast<std::uint64_t>(tr.part[k]);
      for (int cp : tr.children(k))
        enqueue(v, cp, tr.part[k], sim::Msg{kResult, part, value, 0});
    };
    for (int i = 0; i < p_.num_parts; ++i) {
      const int li = p_.leader[i];
      const int k = tr.find(li, i);
      if (k < 0) continue;
      delivered[li] = origin_value[i];
      forward(li, k, origin_value[i]);
      eng_.wake(li);
    }
    eng_.run([&](int v) {
      for (const auto& in : eng_.inbox(v)) {
        if (in.msg.tag != kResult) continue;
        const int part = static_cast<int>(in.msg.a);
        const int k = tr.find(v, part);
        PW_CHECK(k >= 0);
        if (p_.part_of[v] == part) delivered[v] = in.msg.b;
        forward(v, k, in.msg.b);
      }
      flush(v);
    });
    return delivered;
  }

  // --- Algorithm 2's objection round. ---------------------------------------
  // Uninformed members of active parts shout kNack on every port; informed
  // same-part receivers raise their objection flag. Returns the flags.
  std::vector<char> objection_round() {
    std::vector<char> objected(g_.n(), 0);
    std::vector<char> nack_sent(g_.n(), 0);
    for (int v = 0; v < g_.n(); ++v)
      if (uninformed(v)) eng_.wake(v);
    eng_.run([&](int v) {
      for (const auto& in : eng_.inbox(v)) {
        if (in.msg.tag != kNack) continue;
        if (labels_.part[g_.arc_id(v, in.port)] != p_.part_of[v]) continue;
        if (trees_.find(v, p_.part_of[v]) >= 0) objected[v] = 1;
      }
      if (!nack_sent[v] && uninformed(v)) {
        nack_sent[v] = 1;
        for (int port = 0; port < g_.degree(v); ++port)
          eng_.send(v, port, sim::Msg{kNack, 0, 0, 0});
      }
    });
    return objected;
  }

  // --- Tree results ---------------------------------------------------------
  // A part is covered when every member has an entry in its tree; a part
  // with no tree in trees_ (not waved, not recorded) is not.
  std::vector<char> coverage() const {
    std::vector<char> covered(p_.num_parts, 1);
    for (int v = 0; v < g_.n(); ++v)
      if (trees_.find(v, p_.part_of[v]) < 0) covered[p_.part_of[v]] = 0;
    return covered;
  }

  // Shortcut blocks this call's wave touched, per part (0 for parts it did
  // not wave).
  std::vector<std::uint64_t> blocks_touched() const {
    std::vector<std::uint64_t> count(p_.num_parts, 0);
    for (std::size_t k = 0; k < block_root_.size(); ++k)
      if (block_root_[k]) ++count[trees_.part[k]];
    return count;
  }

  bool is_member(int v, int part) const { return p_.part_of[v] == part; }
  bool is_active(int part) const { return active_[part] != 0; }
  // Whether entry k of trees_ is a block root this call's wave found.
  bool is_block_root(int k) const { return block_root_[k] != 0; }

 private:
  bool in_active_part(int v) const { return active_[p_.part_of[v]] != 0; }
  bool uninformed(int v) const {
    return in_active_part(v) && trees_.find(v, p_.part_of[v]) < 0;
  }

  Entry* find(int v, int part) {
    for (auto& e : entries_[v])
      if (e.part == part) return &e;
    return nullptr;
  }

  // Records the wave's trees of the active parts into trees_ (no traffic)
  // and drops the wave state.
  void record() {
    WaveTrees fresh = WaveTrees::none(g_.n(), p_.num_parts);
    fresh.recorded = active_;
    for (int v = 0; v < g_.n(); ++v) {
      for (const Entry& e : entries_[v]) {
        fresh.part.push_back(e.part);
        fresh.parent_port.push_back(e.parent_port);
        fresh.child_port.insert(fresh.child_port.end(),
                                e.children_ports.begin(),
                                e.children_ports.end());
        fresh.child_end.push_back(static_cast<int>(fresh.child_port.size()));
      }
      fresh.offset[v + 1] = static_cast<int>(fresh.part.size());
    }
    trees_.adopt(std::move(fresh), active_);
    block_root_.assign(trees_.part.size(), 0);
    for (int v = 0; v < g_.n(); ++v)
      for (const Entry& e : entries_[v])
        if (e.is_block_root) block_root_[trees_.find(v, e.part)] = 1;
    entries_ = {};
    hi_children_ = {};
    pending_origin_ = {};
  }

  void precompute_hi_children() {
    hi_children_.assign(g_.n(), {});
    for (int c = 0; c < g_.n(); ++c) {
      if (s_.parts_on[c].empty()) continue;
      const int parent = t_.parent[c];
      PW_CHECK(parent >= 0);
      // Port at the parent toward c.
      const int arc_up = g_.arc_id(c, t_.parent_port[c]);
      const int port_down = g_.mirror(arc_up) - g_.arc_id(parent, 0);
      for (int part : s_.parts_on[c])
        hi_children_[parent].push_back({part, port_down});
    }
    for (auto& list : hi_children_) std::sort(list.begin(), list.end());
  }

  std::int64_t up_prio(int v, int part) const {
    if (s_.block_root_depth_on.empty() || s_.block_root_depth_on[v].empty())
      return 0;
    const auto& parts = s_.parts_on[v];
    const auto it = std::lower_bound(parts.begin(), parts.end(), part);
    PW_CHECK(it != parts.end() && *it == part);
    return s_.block_root_depth_on[v][it - parts.begin()];
  }

  // The sequence tie-breaker is per NODE, not global: flush() only ever
  // compares items of one node's outbox, whose relative seq order equals its
  // enqueue order either way — and per-node counters keep the gather/scatter
  // callbacks free of shared mutable state, as the engine's shard-parallel
  // execution requires (DESIGN.md §7).
  void enqueue(int v, int port, std::int64_t prio, const sim::Msg& msg) {
    outbox_[v].push_back(OutItem{port, prio, seq_[v]++, msg});
  }

  void flush(int v) {
    auto& box = outbox_[v];
    if (box.empty()) return;
    std::sort(box.begin(), box.end(), [](const OutItem& a, const OutItem& b) {
      if (a.port != b.port) return a.port < b.port;
      if (a.prio != b.prio) return a.prio < b.prio;
      return a.seq < b.seq;
    });
    std::vector<OutItem> kept;
    int last_port = -1;
    for (auto& item : box) {
      if (item.port != last_port) {
        last_port = item.port;
        eng_.send(v, item.port, item.msg);
      } else {
        kept.push_back(item);
      }
    }
    box.swap(kept);
    if (!box.empty()) eng_.wake(v);
  }

  // Creates the wave entry for (v, part) if absent; acks the parent and
  // applies the member rules of Algorithm 1. Returns the entry.
  Entry& grant(int v, int part, int parent_port) {
    if (Entry* existing = find(v, part)) return *existing;
    entries_[v].push_back(Entry{});
    Entry& e = entries_[v].back();
    e.part = part;
    e.parent_port = parent_port;
    if (parent_port >= 0)
      enqueue(v, parent_port, -1,
              sim::Msg{kAdopt, static_cast<std::uint64_t>(part), 0, 0});

    if (is_member(v, part)) {
      // Lines 13-15: spread through the sub-part tree and across edges that
      // exit sub-parts; line 18's route-to-representative is the same tree
      // spread seen from below.
      const sim::Msg token{kToken, static_cast<std::uint64_t>(part), 0, 0};
      const int tp = d_.forest.parent_port[v];
      if (tp >= 0 && tp != parent_port) enqueue(v, tp, -1, token);
      for (int cp : d_.forest.children_ports[v])
        if (cp != parent_port) enqueue(v, cp, -1, token);
      for (int xp : labels_.cross_ports(v))
        if (xp != parent_port) enqueue(v, xp, -1, token);
      // Lines 8-12: representatives alone inject into shortcut blocks.
      if (d_.is_representative(v)) handle_block_up(v, e);
    }
    return e;
  }

  // BlockRoute climb step at v for part e.part: forward up while the parent
  // edge stays in Hi; otherwise v is the block root and turns the flow down.
  void handle_block_up(int v, Entry& e) {
    if (s_.edge_in_part(v, e.part)) {
      if (e.up_done) return;
      e.up_done = true;
      enqueue(v, t_.parent_port[v], up_prio(v, e.part),
              sim::Msg{kBlockUp, static_cast<std::uint64_t>(e.part), 0, 0});
    } else {
      start_down(v, e, t_.depth[v], /*as_root=*/true);
    }
  }

  void start_down(int v, Entry& e, std::int64_t root_depth, bool as_root) {
    if (e.down_done) return;
    e.down_done = true;
    const auto& list = hi_children_[v];
    auto it = std::lower_bound(
        list.begin(), list.end(), std::pair<int, int>{e.part, -1});
    bool any = false;
    for (; it != list.end() && it->first == e.part; ++it) {
      any = true;
      enqueue(v, it->second, root_depth,
              sim::Msg{kBlockDown, static_cast<std::uint64_t>(e.part), 0,
                       static_cast<std::uint64_t>(root_depth)});
    }
    if (any && as_root) e.is_block_root = true;
  }

  void process_wave(int v) {
    if (pending_origin_[v]) {
      pending_origin_[v] = 0;
      grant(v, p_.part_of[v], -1);
    }
    for (const auto& in : eng_.inbox(v)) {
      const int part = static_cast<int>(in.msg.a);
      switch (in.msg.tag) {
        case kToken: {
          Entry& e = grant(v, part, in.port);
          (void)e;
          break;
        }
        case kBlockUp: {
          Entry& e = grant(v, part, in.port);
          handle_block_up(v, e);
          break;
        }
        case kBlockDown: {
          Entry& e = grant(v, part, in.port);
          start_down(v, e, static_cast<std::int64_t>(in.msg.c),
                     /*as_root=*/false);
          break;
        }
        case kAdopt: {
          Entry* e = find(v, part);
          PW_CHECK(e != nullptr);
          e->children_ports.push_back(in.port);
          break;
        }
        default:
          PW_CHECK_MSG(false, "unexpected tag %d in wave", in.msg.tag);
      }
    }
    flush(v);
  }

  sim::Engine& eng_;
  const graph::Graph& g_;
  const graph::Partition& p_;
  const shortcut::SubPartDivision& d_;
  const NeighborLabels& labels_;  // announced once per partition, read only
  const shortcut::Shortcut& s_;
  const tree::SpanningForest& t_;
  PaGivenConfig cfg_;
  std::vector<char> active_;  // per part: waved by this call
  WaveTrees& trees_;          // what gather and scatter run on

  // Wave state, held only while the wave runs.
  std::vector<std::vector<Entry>> entries_;
  std::vector<char> pending_origin_;
  // Per parent node: (part, child port) pairs with that child edge in Hi.
  std::vector<std::vector<std::pair<int, int>>> hi_children_;

  std::vector<char> block_root_;  // per entry of trees_: this wave's roots
  std::vector<std::vector<OutItem>> outbox_;
  std::vector<std::uint64_t> seq_;
};

}  // namespace

void NeighborLabels::check_matches(const graph::Graph& g,
                                   const graph::Partition& p) const {
  const auto arcs = static_cast<std::size_t>(g.num_arcs());
  PW_CHECK_MSG(n == g.n() && part.size() == arcs &&
                   num_parts == p.num_parts,
               "neighbor labels were announced for n=%d, %zu arcs, %d parts "
               "but are used on n=%d, %zu arcs, %d parts; announce_labels "
               "again after installing a partition",
               n, part.size(), num_parts, g.n(), arcs, p.num_parts);
}

NeighborLabels announce_labels(sim::Engine& eng, const graph::Partition& p,
                               const shortcut::SubPartDivision& d) {
  const auto& g = eng.graph();
  PW_CHECK(static_cast<int>(p.part_of.size()) == g.n() &&
           static_cast<int>(d.subpart_of.size()) == g.n());
  NeighborLabels l;
  l.n = g.n();
  l.num_parts = p.num_parts;
  l.part.assign(g.num_arcs(), -1);
  l.subpart.assign(g.num_arcs(), -1);
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  std::vector<char> sent(g.n(), 0);
  eng.run([&](int v) {
    for (const auto& in : eng.inbox(v)) {
      if (in.msg.tag != kInfo) continue;
      const int a = g.arc_id(v, in.port);
      l.part[a] = static_cast<int>(in.msg.a);
      l.subpart[a] = static_cast<int>(in.msg.b);
    }
    if (sent[v]) return;
    sent[v] = 1;
    for (int port = 0; port < g.degree(v); ++port)
      eng.send(v, port,
               sim::Msg{kInfo, static_cast<std::uint64_t>(p.part_of[v]),
                        static_cast<std::uint64_t>(d.subpart_of[v]), 0});
  });
  // Cross ports: same part, other sub-part.
  l.cross_offset.assign(g.n() + 1, 0);
  for (int v = 0; v < g.n(); ++v) {
    for (int port = 0; port < g.degree(v); ++port) {
      const int a = g.arc_id(v, port);
      if (l.part[a] == p.part_of[v] && l.subpart[a] != d.subpart_of[v])
        l.cross_port.push_back(port);
    }
    l.cross_offset[v + 1] = static_cast<int>(l.cross_port.size());
  }
  return l;
}

WaveTrees WaveTrees::none(int n, int num_parts) {
  WaveTrees w;
  w.recorded.assign(num_parts, 0);
  w.offset.assign(n + 1, 0);
  return w;
}

void WaveTrees::adopt(WaveTrees&& from, const std::vector<char>& keep) {
  const int n = num_nodes();
  PW_CHECK_MSG(from.num_nodes() == n && from.num_parts() == num_parts() &&
                   static_cast<int>(keep.size()) == num_parts(),
               "wave trees for n=%d, %d parts cannot adopt trees for n=%d, "
               "%d parts (keep mask of %zu)",
               n, num_parts(), from.num_nodes(), from.num_parts(), keep.size());
  bool holds_none = true, takes_all = true;
  for (int i = 0; i < num_parts(); ++i) {
    PW_CHECK_MSG(!keep[i] || (from.recorded[i] && !recorded[i]),
                 "part %d: adopting a tree that is %s", i,
                 recorded[i] ? "already recorded" : "not in the source");
    holds_none = holds_none && !recorded[i];
    takes_all = takes_all && (keep[i] != 0) == (from.recorded[i] != 0);
  }
  if (holds_none && takes_all) {
    *this = std::move(from);
    return;
  }
  WaveTrees out = none(n, num_parts());
  for (int i = 0; i < num_parts(); ++i)
    out.recorded[i] = recorded[i] || keep[i];
  const auto copy = [&out](const WaveTrees& src, int k) {
    out.part.push_back(src.part[k]);
    out.parent_port.push_back(src.parent_port[k]);
    const auto kids = src.children(k);
    out.child_port.insert(out.child_port.end(), kids.begin(), kids.end());
    out.child_end.push_back(static_cast<int>(out.child_port.size()));
  };
  for (int v = 0; v < n; ++v) {
    for (int k = offset[v]; k < offset[v + 1]; ++k) copy(*this, k);
    for (int k = from.offset[v]; k < from.offset[v + 1]; ++k)
      if (keep[from.part[k]]) copy(from, k);
    out.offset[v + 1] = static_cast<int>(out.part.size());
  }
  *this = std::move(out);
}

void WaveTrees::check_matches(const graph::Graph& g,
                              const graph::Partition& p) const {
  PW_CHECK_MSG(num_nodes() == g.n() && num_parts() == p.num_parts,
               "wave trees were recorded for n=%d, %d parts but are used on "
               "n=%d, %d parts",
               num_nodes(), num_parts(), g.n(), p.num_parts);
}

PaGivenResult pa_given(sim::Engine& eng, const graph::Partition& p,
                       const shortcut::SubPartDivision& d,
                       const NeighborLabels& labels,
                       const shortcut::Shortcut& s,
                       const tree::SpanningForest& t, const Agg& agg,
                       const std::vector<std::uint64_t>& values,
                       const PaGivenConfig& cfg, WaveTrees* trees) {
  const int n = eng.graph().n();
  PW_CHECK_MSG(static_cast<int>(values.size()) == n,
               "pa_given: %zu values for a graph of %d nodes", values.size(),
               n);
  WaveTrees local;
  WaveTrees& tr = trees != nullptr ? *trees : local;
  if (tr.offset.empty()) tr = WaveTrees::none(n, p.num_parts);
  Waveguide wg(eng, p, d, labels, s, t, cfg, tr, /*active=*/{});

  PaGivenResult r;
  auto snap = eng.snap();
  wg.run_wave();
  r.wave_stats = eng.since(snap);
  r.part_covered = wg.coverage();
  r.blocks_touched = wg.blocks_touched();

  snap = eng.snap();
  r.part_value = wg.run_gather(agg, [&](int v, int k) {
    return wg.is_member(v, tr.part[k]) ? values[v] : agg.identity;
  });
  r.gather_stats = eng.since(snap);

  snap = eng.snap();
  r.node_value = wg.run_scatter(r.part_value, agg.identity);
  r.scatter_stats = eng.since(snap);
  return r;
}

VerifyResult verify_block_parameter(sim::Engine& eng,
                                    const graph::Partition& p,
                                    const shortcut::SubPartDivision& d,
                                    const NeighborLabels& labels,
                                    const shortcut::Shortcut& s,
                                    const tree::SpanningForest& t,
                                    int b_target, const PaGivenConfig& cfg,
                                    const std::vector<char>& active) {
  VerifyResult out;
  out.trees = WaveTrees::none(eng.graph().n(), p.num_parts);
  Waveguide wg(eng, p, d, labels, s, t, cfg, out.trees, active);
  const auto snap = eng.snap();
  wg.run_wave();

  // Lines 3-4: uninformed nodes object to their in-part neighbors.
  const std::vector<char> objected = wg.objection_round();

  // Lines 5-9: one gather/scatter tells every covered node whether anyone
  // objected and how many blocks its part has. The packed value keeps both
  // counts in one O(log n)-bit word.
  const Agg sum = agg::sum();
  auto packed = wg.run_gather(sum, [&](int v, int k) -> std::uint64_t {
    std::uint64_t x = 0;
    if (wg.is_member(v, out.trees.part[k]) && objected[v]) x += (1ULL << 32);
    if (wg.is_block_root(k)) x += 1;
    return x;
  });
  wg.run_scatter(packed, 0);

  out.stats = eng.since(snap);
  out.part_good.assign(p.num_parts, 0);
  out.blocks_counted.assign(p.num_parts, 0);
  const auto covered = wg.coverage();
  for (int i = 0; i < p.num_parts; ++i) {
    if (!wg.is_active(i)) continue;  // sent nothing; verdict stays "not good"
    const std::uint64_t objections = packed[i] >> 32;
    out.blocks_counted[i] = packed[i] & 0xffffffffULL;
    out.part_good[i] = covered[i] && objections == 0 &&
                       out.blocks_counted[i] <= static_cast<std::uint64_t>(b_target);
    // An uncovered part must see at least one objection (Lemma 4.5).
    if (!covered[i]) PW_CHECK(objections > 0);
  }
  return out;
}

}  // namespace pw::core
