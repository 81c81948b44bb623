// Command joinoptlint is the go vet tool for joinopt's custom static
// analyzers (internal/lint): recyclecheck, lockcheck, errcode and hotpath.
//
//	go build -o /tmp/joinoptlint ./cmd/joinoptlint
//	go vet -vettool=/tmp/joinoptlint ./...        # = make lint
//
// go vet does the loading (test files included) and drives the tool through
// the cmd/go vet protocol: -V=full for the version/cache key, -flags for
// supported flags (none), and one JSON .cfg file per package carrying the
// file list and export-data map.
//
// Exit status: 0 clean, 1 on a loading/internal error, 2 when any
// diagnostic was reported (matching go vet's convention).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"joinopt/internal/lint"
	"joinopt/internal/lint/lintload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The cmd/go vet protocol probes the tool before use.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			// The version line is go vet's cache key for this tool;
			// bump it when analyzer behavior changes.
			fmt.Println("joinoptlint version v1.0.0")
			return 0
		case a == "-flags" || a == "--flags":
			fmt.Println("[]")
			return 0
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "joinoptlint: run me through go vet: go vet -vettool=<this binary> ./...")
		return 1
	}
	return runVet(args[0])
}

// vetConfig is the JSON the go command hands a vet tool per package; the
// field set mirrors x/tools' unitchecker.Config (only the fields this
// suite needs are consumed — the analyzers neither read facts nor emit
// them).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVet(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinoptlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "joinoptlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the facts file to exist even though the
	// suite exports none; write it before anything can fail.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("joinoptlint-no-facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "joinoptlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: facts only, and we have none
	}
	// Resolve source import paths through ImportMap into export files.
	exports := map[string]string{}
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	for src, canonical := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[canonical]; ok {
			exports[src] = file
		}
	}
	pkg, err := lintload.CheckFiles(cfg.ImportPath, cfg.GoFiles, lintload.NewExportImporter(exports))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "joinoptlint:", err)
		return 1
	}
	diags, err := lint.RunPackage(pkg, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinoptlint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
