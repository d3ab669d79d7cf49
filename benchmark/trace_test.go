package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	want := map[int]int64{0: 50, 1: 20, 2: 10, 3: 30, 4: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || len(tr.durationsMs("x")) != 0 || len(tr.selfByName()) != 0 {
		t.Error("a nil tracer recorded something")
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 7)
	child := tr.begin("lp.solve", root, 7)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "w.trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if !reflect.DeepEqual(back, tr.spans) {
		t.Errorf("read back %+v, wrote %+v", back, tr.spans)
	}
	if back[1].Parent != back[0].ID || back[1].Op != 7 || back[1].End < back[1].Start {
		t.Errorf("child span lost its parent, operation or interval: %+v", back[1])
	}
}
