// Package fixture exercises the statecov analyzer: structs with digest
// manifests, planted uncovered fields, a waived ephemeral field, and the
// exemption classes.
package fixture

// hash stands in for digest.Hash.
type hash struct{ sum uint64 }

func (h *hash) U64(v uint64) { h.sum ^= v }

// Widget has a digest surface.
type Widget struct {
	count uint64
	// fuel and lost are missing from Digest.
	fuel uint64 // want "field Widget\\.fuel is mutated \\(in Step\\) but never folded by the digest side \\(Digest\\)"
	lost uint64 // want "field Widget\\.lost is mutated \\(in Step\\) but never folded by the digest side \\(Digest\\)"
	// scratch is rebuilt from the pending event at the start of every
	// step; it is never live at a digest point.
	//cbvet:ephemeral rebuilt from the pending event each step, never live at a digest point
	scratch uint64
	// hook is func-typed: closures cannot be folded.
	hook func()
	// wired is assigned only by the constructor: structural, exempt.
	wired int
	// stats is covered via the nested manifest.
	stats WidgetStats
}

// NewWidget wires a Widget; constructor writes are not mutations.
func NewWidget() *Widget {
	w := &Widget{}
	w.wired = 1
	return w
}

// Step mutates simulation state.
func (w *Widget) Step() {
	w.count++
	w.fuel += 2
	w.lost++
	w.scratch = 9
	w.hook = nil
	w.stats.Hits++
}

// Digest folds the widget — forgetting fuel and lost.
func (w *Widget) Digest(h *hash) {
	h.U64(w.count)
	w.stats.Digest(h)
}

// WidgetStats has its own digest side, like the real per-component
// Stats structs.
type WidgetStats struct {
	Hits uint64
	// Misses is bumped but never folded.
	Misses uint64 // want "field WidgetStats\\.Misses is mutated \\(in bump\\) but never folded by the digest side \\(Digest\\)"
}

// Digest folds the stats manifest, transitively reached from
// Widget.Digest too.
func (s *WidgetStats) Digest(h *hash) {
	h.U64(s.Hits)
}

func (s *WidgetStats) bump() {
	s.Misses++
}

// plain has no digest surface: statecov does not apply, even to a
// State method, which is no longer a manifest.
type plain struct {
	n int
}

func (p *plain) poke() { p.n++ }

func (p *plain) State() int { return 0 }

// helperCovered proves coverage is transitive through package-local
// calls: the field is folded by a helper the root calls.
type helperCovered struct {
	deep uint64
}

func (c *helperCovered) touch() { c.deep++ }

// Digest delegates to foldDeep.
func (c *helperCovered) Digest(h *hash) { foldDeep(c, h) }

func foldDeep(c *helperCovered, h *hash) { h.U64(c.deep) }
