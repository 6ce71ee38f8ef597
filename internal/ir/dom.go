package ir

// Dominator tree and natural-loop detection.
// Used by the vreg-promotion (mem2reg) pass and by the spinloop analysis
// (§3.4.2 runs a loop-simplify-style restructuring before classifying loop
// termination conditions).

// DomTree holds immediate-dominator information for a function.
type DomTree struct {
	F     *Func
	Order []*Block          // reverse postorder
	Num   map[*Block]int    // block -> RPO number
	IDom  map[*Block]*Block // immediate dominator (entry maps to itself)
	Preds map[*Block][]*Block
}

// BuildDom computes the dominator tree with the Cooper-Harvey-Kennedy
// algorithm.
func BuildDom(f *Func) *DomTree {
	d := &DomTree{
		F:     f,
		Num:   map[*Block]int{},
		IDom:  map[*Block]*Block{},
		Preds: Preds(f),
	}
	// Reverse postorder over reachable blocks.
	seen := map[*Block]bool{}
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i := len(post) - 1; i >= 0; i-- {
		d.Order = append(d.Order, post[i])
	}
	for i, b := range d.Order {
		d.Num[b] = i
	}

	entry := f.Entry()
	d.IDom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range d.Order[1:] {
			var newIdom *Block
			for _, p := range d.Preds[b] {
				if _, ok := d.Num[p]; !ok {
					continue // unreachable predecessor
				}
				if d.IDom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.IDom[b] != newIdom {
				d.IDom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for d.Num[a] > d.Num[b] {
			a = d.IDom[a]
		}
		for d.Num[b] > d.Num[a] {
			b = d.IDom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexive).
func (d *DomTree) Dominates(a, b *Block) bool {
	if _, ok := d.Num[b]; !ok {
		return false
	}
	for {
		if a == b {
			return true
		}
		idom := d.IDom[b]
		if idom == nil || idom == b {
			return false
		}
		b = idom
	}
}

// Loop is a natural loop.
type Loop struct {
	Header *Block
	Blocks map[*Block]bool
	// Latches are the blocks with back edges to the header.
	Latches []*Block
	// Exits are (block in loop -> successor outside loop) edges, in
	// reverse postorder of their source blocks.
	Exits []LoopExit
}

// LoopExit is one exiting edge of a loop.
type LoopExit struct {
	From *Block // inside the loop
	To   *Block // outside the loop
}

// FindLoops detects natural loops from back edges (an edge a->h where h
// dominates a). Loops sharing a header are merged.
func (d *DomTree) FindLoops() []*Loop {
	byHeader := map[*Block]*Loop{}
	var order []*Block
	for _, b := range d.Order {
		for _, s := range b.Succs() {
			if d.Dominates(s, b) {
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					byHeader[s] = l
					order = append(order, s)
				}
				l.Latches = append(l.Latches, b)
				// Collect the loop body: all blocks reaching the latch
				// without passing through the header.
				var stack []*Block
				if !l.Blocks[b] {
					l.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range d.Preds[x] {
						if _, ok := d.Num[p]; !ok {
							continue
						}
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	var loops []*Loop
	for _, h := range order {
		l := byHeader[h]
		// Walk the blocks in order, not the map: analyses that stop at the
		// first qualifying exit must pick the same one on every run.
		for _, b := range d.Order {
			if !l.Blocks[b] {
				continue
			}
			for _, s := range b.Succs() {
				if !l.Blocks[s] {
					l.Exits = append(l.Exits, LoopExit{From: b, To: s})
				}
			}
		}
		loops = append(loops, l)
	}
	return loops
}
