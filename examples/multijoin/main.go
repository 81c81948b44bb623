// Multi-join pipeline (Section 6): a fact stream joins three dimension
// tables as chained <premap, map> RDD stages -- pipelined index joins with
// per-stage ski-rental caching, instead of shuffle joins. This is the shape
// of the paper's TPC-DS experiment (Figure 7).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strconv"

	"joinopt"
)

func main() {
	cluster := joinopt.NewCluster(4, joinopt.Full)
	cluster.RegisterUDF("lookup", joinopt.Identity)

	dates := map[string][]byte{}
	for d := 0; d < 365; d++ {
		month := d/31 + 1
		dates[fmt.Sprintf("d%03d", d)] = []byte(fmt.Sprintf("2002-%02d", month))
	}
	items := map[string][]byte{}
	for i := 0; i < 2000; i++ {
		items[fmt.Sprintf("i%04d", i)] = []byte(fmt.Sprintf("brand-%d", i%37))
	}
	stores := map[string][]byte{}
	for s := 0; s < 20; s++ {
		stores[fmt.Sprintf("s%02d", s)] = []byte(fmt.Sprintf("state-%d", s%5))
	}
	cluster.AddTable(joinopt.TableSpec{Name: "date_dim", UDFName: "lookup", Rows: dates})
	cluster.AddTable(joinopt.TableSpec{Name: "item", UDFName: "lookup", Rows: items})
	cluster.AddTable(joinopt.TableSpec{Name: "store", UDFName: "lookup", Rows: stores})
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client, err := cluster.NewClient(joinopt.ClientOptions{MemCacheBytes: 8 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The fact side: store_sales rows with three foreign keys. Date keys
	// are skewed toward recent days, as real sales are.
	rng := rand.New(rand.NewSource(11))
	var facts []joinopt.Row
	for i := 0; i < 5000; i++ {
		day := 300 + rng.Intn(65) // recent-day skew
		if rng.Intn(4) == 0 {
			day = rng.Intn(365)
		}
		facts = append(facts, joinopt.Row{
			"sale":  strconv.Itoa(i),
			"d_fk":  fmt.Sprintf("d%03d", day),
			"i_fk":  fmt.Sprintf("i%04d", rng.Intn(2000)),
			"s_fk":  fmt.Sprintf("s%02d", rng.Intn(20)),
			"price": strconv.Itoa(1 + rng.Intn(500)),
		})
	}

	ctx := joinopt.NewRDDContext(client, 6)
	// The pipeline's request scope (v2 API): canceling it would abandon
	// every in-flight index-join prefetch.
	ctx.Ctx = context.Background()
	result := ctx.FromRows(facts).
		// Stage 1: join date_dim, keep November sales (the Q3 filter).
		MapWithPremap(
			func(r joinopt.Row, a *joinopt.Async) { a.Submit("date_dim", r["d_fk"], nil) },
			func(r joinopt.Row, a *joinopt.Async) joinopt.Row {
				month := string(a.Fetch("date_dim", r["d_fk"], nil))
				if month != "2002-11" {
					return nil
				}
				r["month"] = month
				return r
			}).
		// Stage 2: join item for the brand.
		MapWithPremap(
			func(r joinopt.Row, a *joinopt.Async) { a.Submit("item", r["i_fk"], nil) },
			func(r joinopt.Row, a *joinopt.Async) joinopt.Row {
				r["brand"] = string(a.Fetch("item", r["i_fk"], nil))
				return r
			}).
		// Stage 3: join store for the state.
		MapWithPremap(
			func(r joinopt.Row, a *joinopt.Async) { a.Submit("store", r["s_fk"], nil) },
			func(r joinopt.Row, a *joinopt.Async) joinopt.Row {
				r["state"] = string(a.Fetch("store", r["s_fk"], nil))
				return r
			}).
		Collect()

	// A small aggregation on the join output (the part the paper leaves
	// to SparkSQL): revenue by brand.
	revenue := map[string]int{}
	for _, r := range result {
		p, _ := strconv.Atoi(r["price"])
		revenue[r["brand"]] += p
	}
	fmt.Printf("November sales joined: %d rows, %d brands\n", len(result), len(revenue))

	st := client.Stats()
	fmt.Printf("index-join requests served from cache: %d | at data nodes: %d | fetched: %d\n",
		st.LocalHits, st.RemoteComputed, st.Fetches)
	if len(result) == 0 {
		log.Fatal("join pipeline produced no rows")
	}
}
