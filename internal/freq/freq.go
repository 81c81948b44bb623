// Package freq tracks per-key access frequencies for the ski-rental
// decisions of Section 4.3 with the Lossy Counting algorithm of Manku and
// Motwani (VLDB 2002); exact counting is the same rule with no bucket
// boundary. The rule is written once, over a caller-held Count per key and
// one Window per stream: Lossy keeps its Counts in its own map, the
// optimizer keeps each in the record holding the rest of that key's state.
package freq

// Count is one key's lossy-counting entry. The zero Count is a key not
// tracked: its estimate is 0 and its next observation inserts it afresh.
type Count struct {
	n     int // occurrences observed since the entry was (re)inserted
	delta int // maximum possible undercount at insertion time
}

// Reset forgets the entry, as an update of the stored item does (4.2.3).
func (c *Count) Reset() { *c = Count{} }

// Window is the stream position lossy counting buckets observations by.
type Window struct {
	width  int // bucket width = ceil(1/epsilon); 0 never closes a bucket
	bucket int // current bucket id, starts at 1
	seen   int // items observed in current bucket
	total  int
}

// NewWindow returns the window for error bound epsilon; epsilon <= 0
// selects exact counting, whose bucket never closes.
func NewWindow(epsilon float64) Window {
	w := Window{bucket: 1}
	if epsilon > 0 {
		w.width = int(1.0/epsilon + 0.9999999)
	}
	return w
}

// Observe counts one occurrence into c and returns its estimate, this
// occurrence included. full reports that the occurrence closed a bucket,
// after which a caller that bounds its space deletes the Counts whose
// estimate has dropped to 0.
func (w *Window) Observe(c *Count) (est int, full bool) {
	w.total++
	w.seen++
	if w.expired(*c) {
		*c = Count{delta: w.bucket - 1}
	}
	c.n++
	if w.width == 0 || w.seen < w.width {
		return c.n, false
	}
	w.seen = 0
	w.bucket++
	return c.n, true
}

// Estimate returns c's count since it was (re)inserted; it never exceeds the
// true frequency and undershoots it by at most epsilon*N (the entry's delta
// bounds the loss). It is 0 for an entry lossy counting has dropped.
func (w *Window) Estimate(c Count) int {
	if w.expired(c) {
		return 0
	}
	return c.n
}

// expired reports whether a bucket boundary since c was last observed has
// dropped it: its maximum possible count fell to that bucket's id. Lossy
// counting deletes such an entry at the boundary, the compress step; the
// rule reads the same at any later time, because an entry's count and
// delta only change when it is observed, and a live entry's count+delta
// never falls below the current bucket id.
func (w *Window) expired(c Count) bool { return c.n+c.delta < w.bucket }

// Lossy implements Lossy Counting over its own map: frequencies are tracked
// within an additive error of epsilon*N using O(1/epsilon * log(epsilon*N))
// space. Estimates never overcount and undercount by at most epsilon*N.
type Lossy struct {
	epsilon float64
	w       Window
	entries map[string]*Count
}

// NewLossy returns a lossy counter with error bound epsilon in (0, 1).
func NewLossy(epsilon float64) *Lossy {
	if epsilon <= 0 || epsilon >= 1 {
		panic("freq: epsilon must be in (0,1)")
	}
	return &Lossy{epsilon: epsilon, w: NewWindow(epsilon), entries: make(map[string]*Count)}
}

// NewExact returns an exact counter: the lossy rule with no bucket
// boundary, so no entry is ever dropped but by Reset.
func NewExact() *Lossy {
	return &Lossy{w: NewWindow(0), entries: make(map[string]*Count)}
}

// Observe records one occurrence of key and returns the current count
// estimate for it (including this occurrence).
func (l *Lossy) Observe(key string) int {
	c := l.entries[key]
	if c == nil {
		c = new(Count)
		l.entries[key] = c
	}
	est, full := l.w.Observe(c)
	if full {
		for k, c := range l.entries {
			if l.w.expired(*c) {
				delete(l.entries, k)
			}
		}
	}
	return est
}

// Estimate returns the current count estimate without recording an
// occurrence. Unknown keys estimate 0.
func (l *Lossy) Estimate(key string) int {
	if c := l.entries[key]; c != nil {
		return l.w.Estimate(*c)
	}
	return 0
}

// Reset forgets everything known about key.
func (l *Lossy) Reset(key string) { delete(l.entries, key) }

// Total returns the number of observations so far.
func (l *Lossy) Total() int { return l.w.total }

// Tracked returns the number of entries currently held, the space the
// algorithm actually uses.
func (l *Lossy) Tracked() int { return len(l.entries) }

// Distinct is Tracked under the name exact counting gives it.
func (l *Lossy) Distinct() int { return l.Tracked() }

// HeavyHitters returns the keys whose estimated frequency is at least
// support*Total. Per the lossy-counting guarantee the result contains every
// key with true frequency >= support*N and no key with true frequency
// < (support-epsilon)*N.
func (l *Lossy) HeavyHitters(support float64) []string {
	threshold := int(support*float64(l.w.total)) - int(l.epsilon*float64(l.w.total))
	var out []string
	for k, c := range l.entries {
		if c.n >= threshold {
			out = append(out, k)
		}
	}
	return out
}
