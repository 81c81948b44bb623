// Package history holds the live plane's zero-lost-acked-puts contract in
// one place: every acknowledged put reads back afterwards at its acked
// version with its acked value, or at a newer version. A run records each
// acknowledgment in a Ledger, from any number of goroutines, and audits the
// cluster against it at the end. The package imports nothing from this
// module, so the live plane's own tests can use it.
package history

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// A Ledger records acknowledged puts. It keeps, per key, the highest
// version acknowledged and the value written at it, so acks arriving out
// of order from several writers still leave the newest one standing; of
// two acks at one version, the later recorded stands. The zero value is
// ready to use; a Ledger must not be copied after first use.
type Ledger struct {
	mu   sync.Mutex
	acks map[string]ack
	n    atomic.Int64
}

type ack struct {
	val string
	ver int64
}

// Ack records that a put of value to key was acknowledged at version.
func (l *Ledger) Ack(key string, value []byte, version int64) {
	l.mu.Lock()
	if a, ok := l.acks[key]; !ok || version >= a.ver {
		if l.acks == nil {
			l.acks = make(map[string]ack)
		}
		l.acks[key] = ack{string(value), version}
	}
	l.mu.Unlock()
	l.n.Add(1)
}

// Acked returns how many acknowledgments have been recorded.
func (l *Ledger) Acked() int64 { return l.n.Load() }

// Keys returns how many distinct keys have an acknowledged put.
func (l *Ledger) Keys() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acks)
}

// Kind says how an acknowledged put failed its audit.
type Kind string

const (
	Lost       Kind = "LOST"       // read back below its acked version (0 = absent)
	Diverged   Kind = "DIVERGED"   // read back at its acked version with another value
	Stale      Kind = "STALE"      // AuditLatest read a value other than the newest acked one
	ReadFailed Kind = "UNREADABLE" // the read itself returned an error
)

// A Violation is one acknowledged put the cluster failed to serve back.
type Violation struct {
	Kind    Kind
	Key     string
	Value   string // the newest acked value
	Version int64  // its version
	Got     string // what the read returned (Lost, Diverged, Stale)
	GotVer  int64  // the version it returned (Lost, Diverged)
	Err     error  // the read's error (ReadFailed)
}

// String is the one format every audit reports a violation in.
func (v Violation) String() string {
	head := fmt.Sprintf("%s acked put %s (v%d %q): ", v.Kind, v.Key, v.Version, v.Value)
	switch v.Kind {
	case Lost, Diverged:
		return head + fmt.Sprintf("read v%d %q", v.GotVer, v.Got)
	case Stale:
		return head + fmt.Sprintf("read %q", v.Got)
	default:
		return head + v.Err.Error()
	}
}

// Audit reads every acknowledged key back through read and returns, in key
// order, each one that reads below its acked version (Lost), at its acked
// version with another value (Diverged), or not at all (ReadFailed). read
// returns a key's value and version; an absent key is version 0. Acks
// recorded while Audit runs are not audited.
func (l *Ledger) Audit(read func(key string) (value []byte, version int64, err error)) []Violation {
	return l.audit(func(v *Violation) {
		val, ver, err := read(v.Key)
		v.Got, v.GotVer, v.Err = string(val), ver, err
		switch {
		case err != nil:
			v.Kind = ReadFailed
		case ver < v.Version:
			v.Kind = Lost
		case ver == v.Version && v.Got != v.Value:
			v.Kind = Diverged
		}
	})
}

// AuditLatest reads every acknowledged key back through read, which has no
// version to give, and returns, in key order, each one whose value is not
// the newest acked one (Stale) or that fails to read (ReadFailed). It
// holds only once every writer has stopped.
func (l *Ledger) AuditLatest(read func(key string) (value []byte, err error)) []Violation {
	return l.audit(func(v *Violation) {
		val, err := read(v.Key)
		v.Got, v.Err = string(val), err
		switch {
		case err != nil:
			v.Kind = ReadFailed
		case v.Got != v.Value:
			v.Kind = Stale
		}
	})
}

// audit has judge read back each acked put, in key order and without the
// lock held, and returns the ones it gave a Kind.
func (l *Ledger) audit(judge func(*Violation)) []Violation {
	l.mu.Lock()
	all := make([]Violation, 0, len(l.acks))
	for k, a := range l.acks {
		all = append(all, Violation{Key: k, Value: a.val, Version: a.ver})
	}
	l.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var vs []Violation
	for _, v := range all {
		judge(&v)
		if v.Kind != "" {
			vs = append(vs, v)
		}
	}
	return vs
}
