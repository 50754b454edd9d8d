// Randomized message-efficient shortcut construction (Section 5.2,
// Algorithm 4), built on the CoreFast claiming procedure of Haeupler, Izumi
// and Zuzic [19] as the paper describes it: sub-part representatives send
// claims up the BFS tree T; a tree edge accepts at most `congestion_cap`
// distinct parts and breaks for everyone else, fragmenting each part's
// claimed edge set into blocks.
//
// Message efficiency comes precisely from the sub-part division: only the
// Õ(n/D) representatives inject claims (each travelling <= depth(T) hops),
// so claiming costs Õ(n) messages instead of the Ω(n · D) a node-level
// CoreFast would pay — the same observation that drives Algorithm 1.
//
// This file holds Algorithm 4's claim pass (line 3) only. The rest of the
// loop — every active part participating with probability 1/2 after the
// first attempt (the contention halving that [19, Lemma 4] supplies),
// verifying the candidate with Algorithm 2 for the participating parts
// only, and freezing the parts whose block count lands within 3·b_target
// (lines 4-6) — is the one freeze loop PaSolver::build_shortcut runs for
// Algorithm 8's candidates too. Per-edge congestion grows by at most
// `congestion_cap` per attempt, i.e. Õ(c) overall.
#pragma once

#include "src/core/pa_given.hpp"

namespace pw::core {

// One claiming pass (CoreFast proper) for the given set of participating
// parts. Returns the candidate shortcut (claims of participating parts
// only). All traffic is real engine traffic, including the downward
// root-depth backflow that tells every claimed edge its block root's depth
// (the annotation Algorithm 1's scheduler consumes).
shortcut::Shortcut corefast_claim(sim::Engine& eng, const graph::Partition& p,
                                  const shortcut::SubPartDivision& d,
                                  const tree::SpanningForest& t,
                                  const std::vector<char>& participating,
                                  int congestion_cap);

}  // namespace pw::core
