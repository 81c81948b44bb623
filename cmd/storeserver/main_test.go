package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"joinopt/internal/history"
	"joinopt/internal/live"
)

// The smoke test re-execs the test binary as the server process: TestMain
// diverts to run() when the child marker is set, so the kill-and-restart
// cycle exercises real process death, not an in-process Server.Close.
const childEnv = "STORESERVER_CHILD_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(childEnv); args != "" {
		os.Exit(run(strings.Split(args, "\x1f"), os.Stdout, os.Stderr, nil))
	}
	os.Exit(m.Run())
}

// startChild launches the server as a subprocess and returns it with the
// address it bound (parsed from its stdout, where run() prints it).
func startChild(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+strings.Join(args, "\x1f"))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			addrCh <- sc.Text()
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("storeserver child exited without printing its address")
		}
		return cmd, addr
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("storeserver child never reported ready")
	}
	panic("unreachable")
}

// TestDiskEngineSurvivesProcessKill boots storeserver with -engine disk,
// writes rows through a live client, SIGKILLs the process, restarts it on
// the same data directory and address, and reads every row back.
func TestDiskEngineSurvivesProcessKill(t *testing.T) {
	dir := t.TempDir()
	args := func(addr string) []string {
		return []string{"-engine", "disk", "-data-dir", dir, "-addr", addr,
			"-table", "demo", "-rows", "100"}
	}
	cmd, addr := startChild(t, args("127.0.0.1:0")...)

	conn, err := live.DialNode(addr, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const puts = 40
	var led history.Ledger
	for i := 0; i < puts; i++ {
		k := fmt.Sprintf("smoke-k%d", i%10)
		v := []byte(fmt.Sprintf("smoke-v%d", i))
		resp, err := conn.Call(live.Request{Op: live.OpPut, Table: "demo",
			Keys: []string{k}, Params: [][]byte{v}})
		if err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		led.Ack(k, v, resp.Metas[0].Version)
	}
	conn.Close()

	// Kill -9: no shutdown hook runs, recovery must come from the WAL.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same directory and the same (now free) address. The
	// port can linger briefly after the kill, so retry the boot.
	var cmd2 *exec.Cmd
	for attempt := 0; ; attempt++ {
		c := exec.Command(os.Args[0])
		c.Env = append(os.Environ(), childEnv+"="+strings.Join(args(addr), "\x1f"))
		c.Stderr = os.Stderr
		stdout, err := c.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		if sc.Scan() && sc.Text() == addr {
			cmd2 = c
			break
		}
		c.Wait()
		if attempt >= 20 {
			t.Fatalf("restart on %s never came up", addr)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()

	conn2, err := live.DialNode(addr, nil)
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	defer conn2.Close()
	// Every acked put must be recovered at its acked version with its
	// value, or newer; and whatever version comes back must hold a value
	// this test wrote.
	vs := led.Audit(func(k string) ([]byte, int64, error) {
		resp, err := conn2.Call(live.Request{Op: live.OpGet, Table: "demo", Keys: []string{k}})
		if err != nil {
			return nil, 0, err
		}
		if v := resp.Values[0]; !strings.HasPrefix(string(v), "smoke-v") {
			return nil, 0, fmt.Errorf("recovered value %q is not a written value", v)
		}
		return resp.Values[0], resp.Metas[0].Version, nil
	})
	for _, v := range vs {
		t.Errorf("after restart: %v", v)
	}
	// A seed row the test never wrote must still be served (version 0,
	// re-seeded at boot, untouched by recovery).
	resp, err := conn2.Call(live.Request{Op: live.OpGet, Table: "demo", Keys: []string{"k00000007"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Values[0]) != "row-7" || resp.Metas[0].Version != 0 {
		t.Errorf("seed row after restart: %q v%d, want %q v0", resp.Values[0], resp.Metas[0].Version, "row-7")
	}
}

// TestBadFlags pins the CLI contract: unknown engines and a missing
// -data-dir are usage errors (exit 2), reported before any socket binds.
func TestBadFlags(t *testing.T) {
	var errBuf strings.Builder
	if code := run([]string{"-engine", "bolt"}, &errBuf, &errBuf, nil); code != 2 {
		t.Errorf("unknown engine: exit %d, want 2 (stderr %q)", code, errBuf.String())
	}
	errBuf.Reset()
	if code := run([]string{"-engine", "disk"}, &errBuf, &errBuf, nil); code != 2 {
		t.Errorf("disk without -data-dir: exit %d, want 2 (stderr %q)", code, errBuf.String())
	}
}
