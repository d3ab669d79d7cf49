package main

import (
	"context"
	"flag"
	"omnc/internal/jobs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunPrintsStatsAndWritesLinks(t *testing.T) {
	dir := t.TempDir()
	links := filepath.Join(dir, "links.csv")
	if err := runArgs("-nodes", "60", "-seed", "3", "-links", links); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(links)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 {
		t.Fatalf("links CSV has %d lines", len(lines))
	}
	if lines[0] != "from,to,probability,distance_m" {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunHighQuality(t *testing.T) {
	if err := runArgs("-nodes", "40", "-quality", "0.9", "-scheme", "rs", "-redundancy", "2"); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesSVG(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "topo.svg")
	if err := runArgs("-nodes", "40", "-seed", "2", "-svg", svg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("not an SVG")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := runArgs("-nodes", "1"); err == nil {
		t.Fatal("single node must fail")
	}
	if err := runArgs("-nodes", "40", "-quality", "0.05"); err == nil {
		t.Fatal("uncalibratable quality must fail")
	}
}

func TestRunRejectsBadScheme(t *testing.T) {
	if err := runArgs("-nodes", "40", "-scheme", "fountain"); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if err := runArgs("-nodes", "40", "-redundancy", "0.5"); err == nil {
		t.Fatal("sub-unit redundancy must fail")
	}
}

func TestEmptyCommandLineHashesLikeMinimalSpec(t *testing.T) {
	f, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	want, err := jobs.Decode([]byte(`{"version":1,"kind":"topo","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.spec.Hash() != want.Hash() {
		t.Fatalf("empty command line builds %+v, hashing %s; the minimal Spec hashes %s", f.spec, f.spec.Hash(), want.Hash())
	}
}

// runArgs drives omnc-topo the way main does: register the flags, parse the
// command line, run.
func runArgs(args ...string) error {
	f, err := parse(args...)
	if err != nil {
		return err
	}
	return f.run(context.Background())
}

func parse(args ...string) (*flags, error) {
	fs := flag.NewFlagSet("omnc-topo", flag.ContinueOnError)
	f := register(fs)
	return f, fs.Parse(args)
}
