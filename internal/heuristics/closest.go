package heuristics

import (
	"repro/internal/core"
)

// CTDA is ClosestTopDownAll (Algorithm 4): breadth-first traversals from
// the root; any node able to process every pending request of its subtree
// becomes a replica (absorbing all of them) and its subtree is not
// explored further. Traversals repeat until one adds no replica.
func CTDA(in *core.Instance) (*core.Solution, error) { return run(in, ctda) }

func ctda(st *state) error { return topDown(st, false, false, false) }

// CTDLF is ClosestTopDownLargestFirst: the breadth-first traversal treats
// the child subtree with the most pending requests first, and stops as
// soon as one replica has been placed; it is re-run once per replica.
func CTDLF(in *core.Instance) (*core.Solution, error) { return run(in, ctdlf) }

func ctdlf(st *state) error { return topDown(st, false, false, true) }

// topDown is the Closest top-down body: CTDA's traversals, in which a node
// absorbs its pending subtree only if qosCovers (when qos) and bwFits
// (when bw) also admit it. largestFirst is CTDLF: children queue largest
// first, and each traversal stops at its first placement.
func topDown(st *state, qos, bw, largestFirst bool) error {
	in, t := st.in, st.in.Tree
	for {
		added := false
		queue := append(st.queue[:0], t.Root())
		for head := 0; head < len(queue) && !(largestFirst && added); head++ {
			s := queue[head]
			if st.repl[s] {
				continue
			}
			if in.W[s] >= st.inreq[s] && st.inreq[s] > 0 &&
				(!qos || st.qosCovers(s)) && (!bw || st.bwFits(s)) {
				st.serveAll(s)
				added = true
				continue
			}
			k := len(queue)
			for _, c := range t.Children(s) {
				if t.IsInternal(c) {
					queue = append(queue, c)
				}
			}
			if largestFirst {
				sortByKey(queue[k:], st.inreq, true, st.tmp)
			}
		}
		if !added {
			break
		}
	}
	return st.finish()
}

// CBU is ClosestBottomUp (Algorithm 5): a bottom-up sweep placing a
// replica on every node able to process all pending requests of its
// subtree; nodes that cannot defer to their ancestors.
func CBU(in *core.Instance) (*core.Solution, error) { return run(in, cbu) }

func cbu(st *state) error { return st.sweep(false) }
