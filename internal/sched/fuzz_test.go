// Native fuzzing of the slot-schedule rejection path sched relies on:
// ReplayAll gates every IR on work.IR.Validate, so a schedule Validate accepts
// must drive a real machine without panicking. This file lives in the
// external sched_test package so it can seed from the oracle's checked-in
// corpus, which is decoded with the oracle package.
package sched_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/oracle"
	"parbw/internal/sched"
	"parbw/internal/work"
)

// clampInt8 folds an int into the int8-coded byte format the fuzz
// harnesses decode, saturating rather than wrapping so the seed keeps the
// sign and rough magnitude of the corpus value.
func clampInt8(v int) byte {
	return byte(int8(max(min(v, 127), -128)))
}

// corpusSeeds adds every checked-in corpus entry as (procs, bytes) seeds:
// each superstep's sends serialize to 4-byte (proc, slot, dst, len) groups.
func corpusSeeds(f *testing.F) {
	dir := filepath.Join("..", "oracle", "testdata", "corpus")
	files, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, fi := range files {
		if !strings.HasSuffix(fi.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			f.Fatal(err)
		}
		e, err := oracle.DecodeEntry(data)
		if err != nil {
			f.Fatalf("%s: %v", fi.Name(), err)
		}
		for _, step := range e.Workload.Steps {
			var b []byte
			for _, s := range step.Sends {
				b = append(b, clampInt8(s.Proc), clampInt8(s.Slot), clampInt8(s.Dst), clampInt8(s.Len))
			}
			f.Add(e.Workload.P, b)
		}
	}
}

// checkSlotSchedule decodes an arbitrary byte string into a one-superstep
// IR and checks the rejection contract: Validate never panics, and any IR
// it accepts replays on a real BSP machine without panicking (the engine's
// own schedule validation agrees with the IR's).
func checkSlotSchedule(t *testing.T, procs int, data []byte) {
	if procs < 0 || procs > 64 {
		procs = 1 + (procs&0x7fffffff)%64
	}
	ir := &work.IR{Version: work.Version, P: procs, M: 1, L: 1, Steps: []work.Step{{}}}
	for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
		ir.Steps[0].Sends = append(ir.Steps[0].Sends, work.Send{
			Proc: int(int8(data[i])),
			Slot: int(int8(data[i+1])),
			Dst:  int(int8(data[i+2])),
			Len:  int(int8(data[i+3])),
		})
	}
	if err := ir.Validate(); err != nil { // must never panic
		return
	}
	m := bsp.New(bsp.Config{P: procs, Cost: model.BSPm(1, 1), Seed: 1})
	sched.ReplayAll(m, ir)
}

// FuzzCheckSlotSchedule runs the slot-schedule contract from hand-written
// rejection shapes.
func FuzzCheckSlotSchedule(f *testing.F) {
	f.Add(4, []byte{0, 0, 1, 1, 0, 0, 2, 1})
	f.Add(2, []byte{0, 255, 0, 3})           // negative-ish slot byte patterns
	f.Add(3, []byte{1, 5, 0, 0, 1, 5, 2, 0}) // duplicate (slot, proc)
	f.Add(8, []byte{7, 0, 7, 4, 7, 2, 7, 1}) // long send overlap
	f.Add(1, []byte{0, 0, 0, 0})             // self-send on p=1
	f.Fuzz(checkSlotSchedule)
}

// FuzzCorpusSlotSchedule runs the same contract seeded from whatever
// `bandsim fuzz` has shrunk into the oracle corpus.
func FuzzCorpusSlotSchedule(f *testing.F) {
	f.Add(4, []byte{0, 0, 1, 1, 0, 0, 2, 1})
	corpusSeeds(f)
	f.Fuzz(checkSlotSchedule)
}
