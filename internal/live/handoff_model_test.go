package live

import (
	"fmt"
	"strings"
	"testing"
)

// The handoff model: an exhaustive check of the four-phase migration
// (migrate.go) against commit's put path. The source and the target are
// rows of (version, value); each process is a program counter over the
// protocol's atomic steps. A depth-first search with a visited set runs
// every interleaving of one migration and two puts over three keys of one
// region — stateless model checking in the manner of VeriSoft (Godefroid,
// POPL 1997), no tool needed — and checks the zero-lost-acked-puts
// invariants at every final state: every acked put is readable at the new
// owner at or above its acked version, and the new owner's next version of
// the key is above the acked one.
//
// A put: take putGate shared; check the route (redirect if the region
// moved); check the fence (bounce if the region is fenced); take version
// max(cur, floor)+1 and write, as one step (storage's rowTable.put);
// release the gate; ack.
// A migration: register; regionMax; SetFloor; a bulk copy step per key;
// fence (putGate exclusive, mark fenced, measure the region's highest
// version); a delta copy step per key above the floor; cutover (putGate
// exclusive: floor the target, install the moved record, end the
// registration). Taking the gate exclusively is one step, enabled only
// while no put batch holds it shared.

const modelKeys = 3

// modelSeed is each key's version at the source before the migration:
// key 0 is the region's highest, key 1 holds only its version-0 seed, the
// version the target's seed rows hold too.
var modelSeed = [modelKeys]int64{2, 0, 1}

type modelRow struct {
	ver int64
	val int8 // the put that wrote it, 1-based; 0 is the seed
}

type modelPut struct {
	key   int8
	pc    int8 // index into handoffModel.putSteps
	gated bool // holds putGate shared
	ver   int64
	acked bool
}

// A put's steps; handoffModel.putSteps orders them.
const (
	putGate    int8 = iota // take putGate shared
	putRoute               // check the route
	putFence               // check the fence
	putWrite               // take a version and write
	putRelease             // release putGate
	putAck                 // ack
)

// The migration's steps, in order; a copy step per key follows
// migBulk and migDelta.
const (
	migRegister int8 = iota
	migRegionMax
	migSetFloor
	migBulk
	migFence   = migBulk + modelKeys
	migDelta   = migFence + 1
	migCutover = migDelta + modelKeys
)

type modelState struct {
	src, dst                  [modelKeys]modelRow
	srcFloor, dstFloor        int64
	readers                   int8 // put batches holding putGate shared
	registered, fenced, moved bool // the source's bookkeeping for the region
	mpc                       int8
	floor, maxVer             int64 // the migration's F and the fence's measurement
	puts                      [2]modelPut
}

// handoffMutation breaks one rule of the protocol, so the model can show
// the rule is needed.
type handoffMutation int

const (
	mutNone handoffMutation = iota
	// A put batch that finds no region registered writes without the gate.
	mutSkipGateUnregistered
	// handoff.fence does not run its delta copy.
	mutNoDeltaCopy
	// beginMigration does not raise the floor (SetFloor).
	mutNoSetFloor
	// A put checks its route before it takes the gate.
	mutRouteBeforeGate
	// The cutover installs the moved record without taking the gate.
	mutCutoverUngated
)

type handoffModel struct {
	mut      handoffMutation
	putSteps []int8 // a put's steps in program order
	seen     map[modelState]bool
	trace    []string
	found    []string // the first counterexample: its steps, then the violation
	states   int
}

func regionMaxOf(rows [modelKeys]modelRow) (m int64) {
	for _, r := range rows {
		m = max(m, r.ver)
	}
	return m
}

// copyAbove applies the source's row of key k at the target, set-if-newer,
// if its version is above the scan's bound.
func copyAbove(s *modelState, k int, above int64) {
	if r := s.src[k]; r.ver > above && r.ver > s.dst[k].ver {
		s.dst[k] = r
	}
}

// stepMigration runs the migration's next step, if it is enabled.
func (m *handoffModel) stepMigration(s modelState) (modelState, string, bool) {
	switch pc := s.mpc; {
	case pc == migRegister:
		s.registered = true
		s.mpc++
		return s, "mig: register the region", true
	case pc == migRegionMax:
		s.floor = regionMaxOf(s.src)
		s.mpc++
		return s, fmt.Sprintf("mig: regionMax = %d", s.floor), true
	case pc == migSetFloor:
		s.mpc++
		if m.mut == mutNoSetFloor {
			return s, "mig: SetFloor skipped", true
		}
		s.srcFloor = max(s.srcFloor, s.floor)
		return s, fmt.Sprintf("mig: SetFloor(%d)", s.floor), true
	case pc < migFence:
		k := int(pc - migBulk)
		copyAbove(&s, k, 0)
		s.mpc++
		return s, fmt.Sprintf("mig: bulk copy k%d (source v%d)", k, s.src[k].ver), true
	case pc == migFence:
		if s.readers != 0 {
			return s, "", false
		}
		s.fenced = true
		s.maxVer = regionMaxOf(s.src)
		s.mpc = migDelta
		if m.mut == mutNoDeltaCopy {
			s.mpc = migCutover
		}
		return s, fmt.Sprintf("mig: fence (gate exclusive), region max v%d", s.maxVer), true
	case pc < migCutover:
		k := int(pc - migDelta)
		copyAbove(&s, k, s.floor)
		s.mpc++
		return s, fmt.Sprintf("mig: delta copy k%d above %d (source v%d)", k, s.floor, s.src[k].ver), true
	case pc == migCutover:
		if s.readers != 0 && m.mut != mutCutoverUngated {
			return s, "", false
		}
		s.dstFloor = max(s.dstFloor, s.maxVer)
		s.moved, s.registered, s.fenced = true, false, false
		s.mpc++
		return s, fmt.Sprintf("mig: cutover, target floor %d, moved record installed", s.maxVer), true
	}
	return s, "", false
}

// stepPut runs put i's next step, if it is enabled.
func (m *handoffModel) stepPut(s modelState, i int) (modelState, string, bool) {
	p := &s.puts[i]
	if int(p.pc) == len(m.putSteps) {
		return s, "", false
	}
	name := fmt.Sprintf("put%d(k%d)", i+1, p.key)
	release := func() {
		if p.gated {
			p.gated = false
			s.readers--
		}
	}
	step := m.putSteps[p.pc]
	p.pc++
	done := func(label string) (modelState, string, bool) {
		release()
		p.pc = int8(len(m.putSteps))
		return s, name + ": " + label, true
	}
	switch step {
	case putGate:
		if m.mut == mutSkipGateUnregistered && !s.registered {
			return s, name + ": no region registered, gate skipped", true
		}
		p.gated = true
		s.readers++
		return s, name + ": take the gate shared", true
	case putRoute:
		if s.moved {
			return done("redirected")
		}
		return s, name + ": route clear", true
	case putFence:
		if s.fenced {
			return done("bounced by the fence")
		}
		return s, name + ": fence clear", true
	case putWrite:
		k := p.key
		p.ver = max(s.src[k].ver, s.srcFloor) + 1
		s.src[k] = modelRow{ver: p.ver, val: int8(i + 1)}
		return s, fmt.Sprintf("%s: write v%d at the source", name, p.ver), true
	case putRelease:
		release()
		return s, name + ": release the gate", true
	default: // putAck
		p.acked = true
		return s, fmt.Sprintf("%s: ack v%d", name, p.ver), true
	}
}

// violation checks a final state against the invariants.
func violation(s modelState) string {
	for i, p := range s.puts {
		if !p.acked {
			continue
		}
		r := s.dst[p.key]
		if r.ver < p.ver || r.ver == p.ver && r.val != int8(i+1) {
			return fmt.Sprintf("put%d was acked at v%d, but the new owner holds k%d at v%d (written by put %d; 0 = seed)",
				i+1, p.ver, p.key, r.ver, r.val)
		}
		if next := max(r.ver, s.dstFloor) + 1; next <= p.ver {
			return fmt.Sprintf("the new owner's next version of k%d is v%d, not above put%d's acked v%d",
				p.key, next, i+1, p.ver)
		}
	}
	return ""
}

// explore runs every interleaving from s, depth first; it reports whether
// it found a counterexample (left in m.found).
func (m *handoffModel) explore(s modelState) bool {
	if m.seen[s] {
		return false
	}
	m.seen[s] = true
	m.states++
	final := true
	try := func(next modelState, label string, ok bool) bool {
		if !ok {
			return false
		}
		final = false
		m.trace = append(m.trace, label)
		if m.explore(next) {
			return true
		}
		m.trace = m.trace[:len(m.trace)-1]
		return false
	}
	if try(m.stepMigration(s)) {
		return true
	}
	for i := range s.puts {
		if try(m.stepPut(s, i)) {
			return true
		}
	}
	if final {
		if v := violation(s); v != "" {
			m.found = append(append([]string(nil), m.trace...), "VIOLATION: "+v)
			return true
		}
	}
	return false
}

// checkHandoff explores the handoff under mut for every choice of the two
// puts' keys, and returns the first counterexample (nil if none) and the
// number of states visited.
func checkHandoff(mut handoffMutation) (found []string, states int) {
	m := &handoffModel{mut: mut, seen: make(map[modelState]bool),
		putSteps: []int8{putGate, putRoute, putFence, putWrite, putRelease, putAck}}
	if mut == mutRouteBeforeGate {
		m.putSteps[0], m.putSteps[1] = putRoute, putGate
	}
	for k1 := range modelKeys {
		for k2 := range modelKeys {
			var s modelState
			for k, v := range modelSeed {
				s.src[k].ver = v
			}
			s.puts[0].key = int8(k1)
			s.puts[1].key = int8(k2)
			if m.explore(s) {
				return m.found, m.states
			}
		}
	}
	return nil, m.states
}

// TestHandoffModel checks the handoff over every interleaving of one
// migration and two puts: no acked put is lost at the protocol as written,
// and each mutation that drops one of its rules loses one, the trace of
// which it logs.
func TestHandoffModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  handoffMutation
	}{
		{"protocol", mutNone},
		{"put_skips_gate_while_unregistered", mutSkipGateUnregistered},
		{"fence_without_delta_copy", mutNoDeltaCopy},
		{"begin_without_SetFloor", mutNoSetFloor},
		{"route_checked_before_gate", mutRouteBeforeGate},
		{"cutover_without_gate", mutCutoverUngated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			found, states := checkHandoff(tc.mut)
			switch {
			case tc.mut == mutNone && found != nil:
				t.Fatalf("counterexample after %d states:\n\t%s", states, strings.Join(found, "\n\t"))
			case tc.mut == mutNone:
				t.Logf("no counterexample in %d states", states)
			case found == nil:
				t.Fatalf("no counterexample in %d states; the model cannot see this rule", states)
			default:
				t.Logf("counterexample after %d states:\n\t%s", states, strings.Join(found, "\n\t"))
			}
		})
	}
}
