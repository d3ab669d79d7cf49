//go:build !linux

package main

import "os/exec"

// CPU and memory accounting read /proc and rusage; off Linux the benchmark
// still runs and checks outputs but reports these as zero.

func selfCPUSeconds() float64        { return 0 }
func selfRSSMB() float64             { return 0 }
func procRSSMB(pid int) float64      { return 0 }
func procCPUSeconds(pid int) float64 { return 0 }
func killWithParent(cmd *exec.Cmd)   {}
