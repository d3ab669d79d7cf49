package main

import (
	"context"
	"flag"
	"omnc/internal/jobs"
	"testing"
)

func TestRunShortSession(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	if err := runArgs("-duration", "600ms", "-rate", "300000", "-generation", "6", "-block", "32", "-seed", "2"); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	if err := runArgs("-duration", "400ms", "-rate", "300000", "-generation", "6", "-block", "32", "-seed", "2", "-trials", "2", "-workers", "2"); err != nil {
		t.Fatal(err)
	}
}

func TestRunSchemeFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	for _, scheme := range []string{"rlnc-e2e", "rs"} {
		if err := runArgs("-duration", "400ms", "-rate", "300000", "-generation", "6", "-block", "32", "-seed", "2", "-scheme", scheme, "-redundancy", "3"); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}

func TestRunBadCoding(t *testing.T) {
	if err := runArgs("-duration", "100ms", "-rate", "1000", "-generation", "0", "-block", "0", "-workers", "1"); err == nil {
		t.Fatal("invalid generation size must fail")
	}
}

func TestRunBadTrials(t *testing.T) {
	if err := runArgs("-duration", "100ms", "-rate", "1000", "-trials", "0", "-workers", "1"); err == nil {
		t.Fatal("zero trials must fail")
	}
}

func TestRunBadScheme(t *testing.T) {
	if err := runArgs("-duration", "100ms", "-rate", "1000", "-workers", "1", "-scheme", "fountain"); err == nil {
		t.Fatal("unknown scheme must fail")
	}
}

func TestEmptyCommandLineHashesLikeMinimalSpec(t *testing.T) {
	f, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	spec := f.resolve()
	want, err := jobs.Decode([]byte(`{"version":1,"kind":"loopback","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Hash() != want.Hash() {
		t.Fatalf("empty command line builds %+v, hashing %s; the minimal Spec hashes %s", spec, spec.Hash(), want.Hash())
	}
}

// runArgs drives omnc-drift the way main does: register the flags, parse the
// command line, run.
func runArgs(args ...string) error {
	f, err := parse(args...)
	if err != nil {
		return err
	}
	return f.run(context.Background())
}

func parse(args ...string) (*flags, error) {
	fs := flag.NewFlagSet("omnc-drift", flag.ContinueOnError)
	f := register(fs)
	return f, fs.Parse(args)
}
