// Command omnc-drift runs one OMNC session over *real* UDP sockets on the
// loopback interface — the architecture of the paper's Drift testbed in
// miniature: real OS transport stacks, modeled wireless PHY. Use it to
// sanity-check the coding stack and wire format against an actual network
// path; use omnc-fig/omnc-sim (virtual time) for experiments.
//
// Usage:
//
//	omnc-drift                    # two-relay diamond, 2 s wall time
//	omnc-drift -duration 5s -rate 500000
//	omnc-drift -trials 4 -workers 4   # four sessions, concurrently
//
// The session itself runs through internal/jobs (kind "loopback"), so the
// same workload is reachable as an omnc-serve job.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"time"

	"omnc/internal/cliflags"
	"omnc/internal/jobs"
)

// flags is omnc-drift's command line: the loopback Spec its flags are bound
// to, and the wall-clock run time, which the flag takes as a time.Duration
// and the Spec carries in seconds.
type flags struct {
	spec     jobs.Spec
	duration time.Duration
}

// register binds omnc-drift's flags to a loopback Spec seeded from the
// defaults table.
func register(fs *flag.FlagSet) *flags {
	f := &flags{spec: jobs.Defaults(jobs.KindLoopback, false)}
	s := &f.spec
	fs.DurationVar(&f.duration, "duration", wallTime(s.Duration), "wall-clock run time")
	fs.Float64Var(&s.Rate, "rate", s.Rate, "per-node broadcast pacing rate (bytes/s)")
	fs.IntVar(&s.GenerationSize, "generation", s.GenerationSize, "blocks per generation")
	fs.IntVar(&s.BlockSize, "block", s.BlockSize, "bytes per block")
	fs.Int64Var(&s.Seed, "seed", 1, "loss-process seed")
	fs.IntVar(&s.Trials, "trials", s.Trials, "independent loopback sessions to run")
	cliflags.Pool(fs, s, false)
	cliflags.Coding(fs, s,
		"coding scheme: rlnc (full recoding), rlnc-e2e (no recoding), rs (source-only Reed-Solomon)",
		"coded packets per generation as a factor of the generation size (0 = rateless)")
	return f
}

// wallTime converts the Spec's seconds to the duration the flag and the
// banner show.
func wallTime(seconds float64) time.Duration {
	return time.Duration(math.Round(seconds * float64(time.Second)))
}

func main() {
	f := register(flag.CommandLine)
	cliflags.New("omnc-drift", flag.CommandLine).Main(f.run)
}

func (f *flags) run(ctx context.Context) error {
	return run(ctx, f.resolve())
}

// resolve returns the Spec the parsed command line names.
func (f *flags) resolve() jobs.Spec {
	spec := f.spec
	spec.Duration = f.duration.Seconds()
	return spec
}

func run(ctx context.Context, spec jobs.Spec) error {
	trials, genSize, block := spec.Trials, spec.GenerationSize, spec.BlockSize
	if trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", trials)
	}
	// The Spec treats zero sizes as "use the defaults"; the flag surface
	// treats them as user error, so reject them before they normalize away.
	if genSize < 1 || block < 1 {
		return fmt.Errorf("generation size and block size must be positive, got %dx%d", genSize, block)
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	fmt.Printf("running OMNC over loopback UDP: %d nodes, generation %dx%dB, scheme %s, %v wall time, %d session(s)\n",
		4, genSize, block, spec.Scheme, wallTime(spec.Duration), trials)

	res, err := jobs.Run(ctx, spec)
	if err != nil {
		return err
	}

	var sum struct {
		decoded, corrupted int
		forwarded, dropped int64
	}
	for i, r := range res.Loopback {
		if trials > 1 {
			fmt.Printf("trial %d: %d generations decoded, %d corrupted, %d datagrams lost\n",
				i, r.GenerationsDecoded, r.Corrupted, r.DatagramsDropped)
		}
		sum.decoded += r.GenerationsDecoded
		sum.corrupted += r.Corrupted
		sum.forwarded += r.DatagramsForwarded
		sum.dropped += r.DatagramsDropped
	}
	total := sum.forwarded + sum.dropped
	fmt.Printf("generations decoded:  %d (verified byte-for-byte; %d corrupted)\n",
		sum.decoded, sum.corrupted)
	fmt.Printf("channel emulator:     %d datagrams forwarded, %d lost (%.0f%% loss)\n",
		sum.forwarded, sum.dropped,
		100*float64(sum.dropped)/float64(max64(total, 1)))
	fmt.Printf("goodput:              %.0f bytes/s of decoded application data per session\n",
		float64(sum.decoded*genSize*block)/(spec.Duration*float64(trials)))
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
