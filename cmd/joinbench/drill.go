package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/history"
	"joinopt/internal/live"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// A storm is the load the durability, replication and migration drills
// put on a cluster. Writers each put perWriter values "w<w>-seq<i>" over
// their own 64 keys "w<w>-k<i%64>", retry each put until it is
// acknowledged, and record every acknowledgment in led. Readers join
// random keys k0..k<keys-1> through Algorithm 1's own route, a forced
// fetch and a cache-bypassing fetch, and count every error and every
// answer other than want's. A third of the way through the puts, disrupt
// injects the fault the drill is about.
type storm struct {
	writers, perWriter int
	// put performs one put and returns the acked version; backoff
	// says how long to wait before retrying a failed put, or false when
	// the drill must not ride that failure out.
	put     func(key string, val []byte) (int64, error)
	backoff func(error) (time.Duration, bool)

	readers, keys int
	call          func(key string, opts ...live.CallOption) ([]byte, error)
	want          func(i int) string // k<i>'s right answer; nil checks none

	disrupt func() error

	led                          history.Ledger
	reads, readFailed, readWrong atomic.Int64
}

// run drives the storm to its end and returns what stopped it early:
// disrupt's error, or a put that failed opaquely or stayed unacknowledged
// for a minute. Read failures are counted, not returned. Readers print
// their first few failures to out as they happen, so out must take
// concurrent writes. Every goroutine run starts has exited when it returns.
func (s *storm) run(out io.Writer) error {
	var (
		stop       atomic.Bool
		mu         sync.Mutex
		first      error
		wg, readWg sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < s.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.write(w, &stop); err != nil {
				fail(err)
			}
		}(w)
	}
	for r := 0; r < s.readers; r++ {
		readWg.Add(1)
		go func(r int) {
			defer readWg.Done()
			s.read(out, r, &stop)
		}(r)
	}
	for s.led.Acked() < int64(s.writers*s.perWriter)/3 && !stop.Load() {
		time.Sleep(time.Millisecond)
	}
	if !stop.Load() {
		if err := s.disrupt(); err != nil {
			fail(err)
		}
	}
	wg.Wait()
	stop.Store(true) // the readers run until the last put
	readWg.Wait()
	return first
}

func (s *storm) write(w int, stop *atomic.Bool) error {
	for i := 1; i <= s.perWriter && !stop.Load(); i++ {
		k, v := fmt.Sprintf("w%d-k%d", w, i%64), []byte(fmt.Sprintf("w%d-seq%d", w, i))
		for deadline := time.Now().Add(time.Minute); ; {
			ver, err := s.put(k, v)
			if err == nil {
				s.led.Ack(k, v, ver)
				break
			}
			wait, ok := s.backoff(err)
			switch {
			case !ok:
				return fmt.Errorf("put %s failed opaquely: %w", k, err)
			case time.Now().After(deadline):
				return fmt.Errorf("put %s never acked: %w", k, err)
			case stop.Load():
				return nil
			}
			time.Sleep(wait)
		}
	}
	return nil
}

func (s *storm) read(out io.Writer, r int, stop *atomic.Bool) {
	rng := rand.New(rand.NewSource(int64(r) + 1))
	for !stop.Load() {
		i := rng.Intn(s.keys)
		k := fmt.Sprintf("k%d", i)
		var opts []live.CallOption
		switch rng.Intn(4) {
		case 0:
			opts = []live.CallOption{live.WithRoute(live.ForceFetch)}
		case 1:
			opts = []live.CallOption{live.WithNoCache()}
		}
		got, err := s.call(k, opts...)
		switch {
		case err != nil:
			if s.readFailed.Add(1) <= 3 {
				fmt.Fprintf(out, "READ FAILURE surfaced to caller: %s: %v\n", k, err)
			}
		case s.want != nil && string(got) != s.want(i):
			if s.readWrong.Add(1) <= 3 {
				fmt.Fprintf(out, "WRONG ANSWER: %s = %q, want %q\n", k, got, s.want(i))
			}
		}
		s.reads.Add(1)
	}
}

// tag is the drills' UDF: the stored value, '#', then the params.
func tag(_ string, params, value []byte) []byte {
	return append(append(append([]byte{}, value...), '#'), params...)
}

// tableT is the client's catalog entry for table "t": valueSize-byte rows,
// regions regions striped over nodes 0..nodes-1.
func tableT(valueSize int64, regions, nodes int) *store.Table {
	ids := make([]cluster.NodeID, nodes)
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	catalog := store.CatalogFunc(func(string) store.RowMeta { return store.RowMeta{ValueSize: valueSize} })
	return store.NewTable("t", catalog, regions, ids)
}

// kbRows seeds each of nodes nodes with the 1 KiB rows k0..k<keys-1> that
// holders places on it.
func kbRows(nodes, keys int, holders func(key string) []cluster.NodeID) []map[string][]byte {
	rows := make([]map[string][]byte, nodes)
	for i := range rows {
		rows[i] = make(map[string][]byte)
	}
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		for _, n := range holders(k) {
			rows[n][k] = val
		}
	}
	return rows
}

// tagClient is the client the replication and migration drills load table
// "t" through: the "tag" UDF, Algorithm 1 with a client cache, and
// placement's map of where each key lives.
func tagClient(reg *live.Registry, table *store.Table, addrs map[cluster.NodeID]string, placement *membership.Map) (*live.Executor, error) {
	return live.NewExecutor(live.ExecConfig{
		Tables:         map[string]*store.Table{"t": table},
		Addrs:          addrs,
		Membership:     placement,
		Registry:       reg,
		TableUDF:       map[string]string{"t": "tag"},
		Optimizer:      core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 32 << 20},
		BatchWait:      500 * time.Microsecond,
		RequestTimeout: 2 * time.Second,
	})
}

// nodeReader reads table "t" straight off one node through call (a Conn's
// or a Pool's), for Ledger.Audit.
func nodeReader(call func(live.Request) (*live.Response, error)) func(key string) ([]byte, int64, error) {
	return func(key string) ([]byte, int64, error) {
		resp, err := call(live.Request{Op: live.OpGet, Table: "t", Keys: []string{key}})
		if err != nil {
			return nil, 0, err
		}
		return resp.Values[0], resp.Metas[0].Version, nil
	}
}

// report prints each audit violation and returns how many there were.
func report(out io.Writer, vs []history.Violation) int {
	for _, v := range vs {
		fmt.Fprintln(out, v)
	}
	return len(vs)
}

// failures collects the pass/fail rules a drill run broke, one phrase each.
type failures []string

func (f *failures) check(broken bool, format string, a ...any) {
	if broken {
		*f = append(*f, fmt.Sprintf(format, a...))
	}
}

// verdict prints the drill's one verdict line, "<drill> drill: PASS: <held>"
// or "<drill> drill: FAIL: <broken rules>", and returns the FAIL line as an
// error.
func (f failures) verdict(out io.Writer, drill, held string) error {
	if len(f) == 0 {
		fmt.Fprintf(out, "%s drill: PASS: %s\n", drill, held)
		return nil
	}
	line := fmt.Sprintf("%s drill: FAIL: %s", drill, strings.Join(f, "; "))
	fmt.Fprintln(out, line)
	return errors.New(line)
}
