package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"ltp"
)

// digest hashes the stable simulated counters a result carries:
// cycles, committed instructions, load serving levels, squashes and
// LTP enqueues/dequeues. Fields added to results later do not change
// it, so the reference table outlives result-format growth.
func digest(r ltp.RunResult) string {
	var enq, deq uint64
	if r.LTP != nil {
		enq, deq = r.LTP.Enqueues, r.LTP.Dequeues
	}
	words := []uint64{r.Cycles, r.Committed, r.Squashes, enq, deq}
	words = append(words, r.LoadLevel[:]...)
	h := sha256.New()
	for _, w := range words {
		_ = binary.Write(h, binary.LittleEndian, w) // hash writes never fail
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// combine folds an ordered list of digests into one.
func combine(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// verifier holds every op key's reference digest: the first set-up's
// digest, pinned by the golden table when the run's seed has one. Set-up
// repetitions and timed ops must reproduce it exactly.
type verifier struct {
	mu     sync.Mutex
	golden map[string]string
	ref    map[string]string
	bad    map[string]bool // keys whose set-up disagreed with golden or itself
	said   map[string]bool // keys already reported on stderr
}

func newVerifier(golden map[string]string) *verifier {
	return &verifier{golden: golden, ref: map[string]string{}, bad: map[string]bool{}, said: map[string]bool{}}
}

// reference records a set-up digest for key.
func (v *verifier) reference(key, d string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if old, ok := v.ref[key]; ok && old != d {
		v.bad[key] = true
		v.say(key, "set-up repetitions disagree: %s vs %s", old, d)
		return
	}
	v.ref[key] = d
	if g, ok := v.golden[key]; ok && g != d {
		v.bad[key] = true
		v.say(key, "digest %s, reference table has %s", d, g)
	}
}

// check reports whether a timed op's digest matches key's reference.
func (v *verifier) check(key, d string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	ref, ok := v.ref[key]
	switch {
	case !ok:
		v.say(key, "no reference digest")
	case ref != d:
		v.say(key, "digest %s, reference %s", d, ref)
	}
	return ok && ref == d && !v.bad[key]
}

func (v *verifier) say(key, format string, args ...any) {
	if !v.said[key] {
		fmt.Fprintf(os.Stderr, "ltpbench: verification failed for %s: %s\n", key, fmt.Sprintf(format, args...))
	}
	v.said[key] = true
}

// failed reports whether any set-up digest disagreed with the golden
// table or across repetitions.
func (v *verifier) failed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.bad) > 0
}

// references returns the recorded digests (for regenerating golden.json).
func (v *verifier) references() map[string]string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]string, len(v.ref))
	for k, d := range v.ref {
		out[k] = d
	}
	return out
}

//go:embed golden.json
var goldenJSON []byte

// goldenDigests decodes the reference table: workload seed (as a
// decimal string) → op key → digest.
func goldenDigests() map[int64]map[string]string {
	var raw map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &raw); err != nil {
		panic("ltpbench: golden.json: " + err.Error()) // embedded at build time
	}
	out := make(map[int64]map[string]string, len(raw))
	for s, m := range raw {
		var seed int64
		if _, err := fmt.Sscan(s, &seed); err != nil {
			panic("ltpbench: golden.json: bad seed " + s)
		}
		out[seed] = m
	}
	return out
}
