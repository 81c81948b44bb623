// Command faultdemo demonstrates the live plane's failure model through
// the public v2 API: a healthy call succeeds, a canceled context rejects
// with ErrCanceled, calls against a dead cluster fail with typed errors
// (never a hang, never a fake missing key), and a closed client fails fast
// with ErrClosed.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"joinopt"
)

func main() {
	cluster := joinopt.NewCluster(2, joinopt.Full)
	cluster.RegisterUDF("greet", func(key string, params, value []byte) []byte {
		if value == nil {
			return nil // no row, no greeting
		}
		return append(append([]byte("hello "), value...), params...)
	})
	cluster.AddTable(joinopt.TableSpec{
		Name: "users", UDFName: "greet",
		Rows: map[string][]byte{"u1": []byte("ada"), "u2": []byte("lin")},
	})
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client, err := cluster.NewClient(joinopt.ClientOptions{
		MaxRetries:     2,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	users := client.Table("users")

	v, err := users.Call(ctx, "u1", []byte("!"))
	fmt.Printf("healthy call:      %q, err=%v\n", v, err)
	v, err = users.Call(ctx, "nobody", nil)
	fmt.Printf("missing key:       value=%v, err=%v (absent is not a failure)\n", v, err)

	// A canceled context rejects the submission with ErrCanceled — the
	// fourth outcome, distinct from absent, server error and wire failure.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = users.Call(canceled, "u2", []byte("?"))
	var je *joinopt.Error
	if errors.As(err, &je) && je.Code == joinopt.ErrCanceled {
		fmt.Printf("canceled context:  code=%v err=%v\n", je.Code, je)
	} else {
		log.Fatalf("canceled context returned no ErrCanceled: %v", err)
	}

	// Kill every store node: requests must fail with a typed error. The
	// call's own bound is its context's deadline.
	cluster.Close()
	dead, cancelDead := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancelDead()
	_, err = users.Call(dead, "u2", []byte("?"))
	if errors.As(err, &je) {
		fmt.Printf("dead cluster:      code=%v err=%v\n", je.Code, je)
	} else {
		log.Fatalf("dead cluster returned no typed error: %v", err)
	}

	client.Close()
	_, err = users.Call(ctx, "u1", nil)
	if errors.As(err, &je) && je.Code == joinopt.ErrClosed {
		fmt.Printf("closed client:     code=%v err=%v\n", je.Code, je)
	} else {
		log.Fatalf("closed client returned no ErrClosed: %v", err)
	}

	s := client.Stats()
	fmt.Printf("stats: local=%d computed=%d raw=%d fetchServed=%d failed=%d canceled=%d retries=%d\n",
		s.LocalHits, s.RemoteComputed, s.RemoteRaw, s.FetchServed, s.Failed, s.Canceled, s.Retries)
}
