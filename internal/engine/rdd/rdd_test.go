package rdd

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/live"
	"joinopt/internal/store"
)

func TestMapFilterCollect(t *testing.T) {
	ctx := NewContext(nil, 2)
	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = Row{"n": strconv.Itoa(i)}
	}
	got := ctx.FromRows(rows).
		Map(func(r Row) Row {
			n, _ := strconv.Atoi(r["n"])
			return Row{"n": r["n"], "sq": strconv.Itoa(n * n)}
		}).
		Filter(func(r Row) bool { return len(r["sq"])%2 == 1 }).
		Collect()
	for _, r := range got {
		if len(r["sq"])%2 != 1 {
			t.Fatalf("filter leaked %v", r)
		}
	}
	if len(got) == 0 {
		t.Fatal("filter dropped everything")
	}
}

func TestLazyEvaluation(t *testing.T) {
	ctx := NewContext(nil, 1)
	calls := 0
	rdd := ctx.FromRows([]Row{{"a": "1"}}).Map(func(r Row) Row {
		calls++
		return r
	})
	if calls != 0 {
		t.Fatal("Map ran eagerly")
	}
	rdd.Collect()
	if calls != 1 {
		t.Fatalf("Map ran %d times", calls)
	}
}

// twoDimStore starts a live store with two dimension tables for the
// multi-join pipeline test.
func twoDimStore(t *testing.T) (*live.Executor, func()) {
	t.Helper()
	reg := live.NewRegistry()
	reg.Register("lookup", live.Identity)
	dates := map[string][]byte{}
	for i := 0; i < 12; i++ {
		dates[fmt.Sprintf("d%d", i)] = []byte(fmt.Sprintf("month-%d", i))
	}
	items := map[string][]byte{}
	for i := 0; i < 40; i++ {
		items[fmt.Sprintf("i%d", i)] = []byte(fmt.Sprintf("item-%d", i))
	}
	srv := live.NewServer(reg, false)
	srv.AddTable(live.TableSpec{Name: "date_dim", UDF: "lookup", Rows: dates})
	srv.AddTable(live.TableSpec{Name: "item", UDF: "lookup", Rows: items})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cat := store.CatalogFunc(func(string) store.RowMeta { return store.RowMeta{ValueSize: 8} })
	nodes := []cluster.NodeID{0}
	exec, err := live.NewExecutor(live.ExecConfig{
		Tables: map[string]*store.Table{
			"date_dim": store.NewTable("date_dim", cat, 1, nodes),
			"item":     store.NewTable("item", cat, 1, nodes),
		},
		Addrs:    map[cluster.NodeID]string{0: addr},
		Registry: reg,
		TableUDF: map[string]string{"date_dim": "lookup", "item": "lookup"},
		Optimizer: core.Config{
			Policy:        core.Policy{Caching: true},
			MemCacheBytes: 1 << 20,
		},
		BatchWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return exec, func() { exec.Close(); srv.Close() }
}

func TestMultiJoinPipeline(t *testing.T) {
	exec, cleanup := twoDimStore(t)
	defer cleanup()
	ctx := NewContext(exec, 4)

	// Fact rows with date and item foreign keys (Section 6: each join is
	// one <premap, map> stage, pipelined).
	var facts []Row
	for i := 0; i < 120; i++ {
		facts = append(facts, Row{
			"sale": strconv.Itoa(i),
			"d_fk": fmt.Sprintf("d%d", i%12),
			"i_fk": fmt.Sprintf("i%d", i%40),
		})
	}
	out := ctx.FromRows(facts).
		MapWithPremap(
			func(r Row, a *Async) { a.Submit("date_dim", r["d_fk"], nil) },
			func(r Row, a *Async) Row {
				month := string(a.Fetch("date_dim", r["d_fk"], nil))
				if month != "month-3" { // the query's date filter
					return nil
				}
				r["month"] = month
				return r
			}).
		MapWithPremap(
			func(r Row, a *Async) { a.Submit("item", r["i_fk"], nil) },
			func(r Row, a *Async) Row {
				r["item"] = string(a.Fetch("item", r["i_fk"], nil))
				return r
			}).
		Collect()

	if len(out) != 10 { // 120 facts / 12 months
		t.Fatalf("joined %d rows, want 10", len(out))
	}
	for _, r := range out {
		if r["month"] != "month-3" {
			t.Fatalf("filter leaked %v", r)
		}
		if r["item"] != "item-"+r["i_fk"][1:] {
			t.Fatalf("wrong item join: %v", r)
		}
	}
}

func TestCountAndFlatMap(t *testing.T) {
	ctx := NewContext(nil, 2)
	n := ctx.FromRows([]Row{{"x": "1"}, {"x": "2"}}).
		FlatMapWithPremap(nil, func(r Row, _ *Async) []Row {
			return []Row{r, r} // duplicate every row
		}).
		Count()
	if n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
}
