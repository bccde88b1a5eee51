package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// fingerprintVersion is folded into every fingerprint so that a change to
// the encoding below can never collide with hashes produced by an older
// scheme (e.g. bounds persisted across processes).
const fingerprintVersion = "sched/instance/v1"

// Fingerprint returns a canonical content hash of the instance, stable
// across processes and identical for instances that pose the same
// scheduling problem: it covers the machine environment (Kind), the
// dimensions, the job→class map and the full processing and setup matrices.
// The derived base fields (JobSize, SetupSize, Speed, Eligible) are fully
// determined by Kind, P and S and are deliberately not hashed, so an
// instance and its Clone — or a deserialized copy — fingerprint alike.
//
// The engine layer keys its bound cache by this value: repeated solves of a
// fingerprint-identical instance warm-start from the bounds (and best
// schedule) established by earlier solves.
func (in *Instance) Fingerprint() string {
	// The encoding goes through one fixed buffer that is hashed whenever
	// it fills: few Write calls, and no allocation that grows with the
	// instance (the whole encoding is 8·(4+n+m·n+m·K) bytes).
	h := sha256.New()
	buf := make([]byte, 0, 1024)
	put := func(u uint64) {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, u)
	}
	h.Write([]byte(fingerprintVersion))
	put(uint64(in.Kind))
	put(uint64(in.N))
	put(uint64(in.M))
	put(uint64(in.K))
	for _, c := range in.Class {
		put(uint64(c))
	}
	for _, row := range in.P {
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	for _, row := range in.S {
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// similarityVersion versions the SimilarityKey encoding the way
// fingerprintVersion versions Fingerprint.
const similarityVersion = "sched/simkey/v1"

// SimilarityKey returns a coarse bucketed profile of the instance: the
// machine environment, the class count, a log₂ bucket of the machine
// count, and per class a log₂ bucket of the job count and a log₁.₂₅
// bucket of the total processing volume (summed over min-per-machine
// times). Instances that differ by a few percent of volume or by small
// job swaps usually collide, while structurally different instances do
// not.
//
// Unlike Fingerprint, equal keys certify nothing: the engine uses them
// only to locate candidate schedules from similar instances, then
// re-prices each candidate on the new instance before trusting it (see
// engine.BoundCache.LookupSimilar). Bucket boundaries make the grouping
// best-effort — a 95%-similar pair can still land in adjacent buckets.
func (in *Instance) SimilarityKey() string {
	// Per-job minimum over the machines, P scanned row by row.
	best := make([]float64, in.N)
	for j := range best {
		best[j] = Inf
	}
	for _, row := range in.P {
		for j, p := range row {
			if p < best[j] {
				best[j] = p
			}
		}
	}
	count := make([]int, in.K)
	vol := make([]float64, in.K)
	for j, b := range best {
		count[in.Class[j]]++
		if IsFinite(b) {
			vol[in.Class[j]] += b
		}
	}
	buf := make([]byte, 0, len(similarityVersion)+8*(3+2*in.K))
	buf = append(buf, similarityVersion...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(in.K))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(logBucket(float64(in.M), 2)))
	for k := 0; k < in.K; k++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(logBucket(float64(count[k]), 2)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(logBucket(vol[k], 1.25)))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// logBucket buckets x > 0 as floor(log_base(x)) shifted to stay
// non-negative; zero and negative values get a dedicated bucket.
func logBucket(x, base float64) int {
	if !(x > 0) {
		return 0
	}
	b := int(math.Floor(math.Log(x)/math.Log(base))) + 64
	if b < 1 {
		b = 1
	}
	return b
}
