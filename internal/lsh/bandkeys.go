package lsh

import "fmt"

// Band-key export for the disk-resident cold tier.
//
// The cold tier stores postings lists keyed by exactly the per-band bucket
// keys the in-RAM MinHash index uses, so a probe's multi-probe order — and
// therefore its candidate set — is identical whether an entry is resident
// in RAM or on disk. These helpers expose the band keys without exposing
// the bucket maps; both the live index and its snapshots compute them
// with the same seed matrix, so keys written at migration time match keys
// probed at query time for the life of the index (the seed matrix is a
// pure function of MinHashParams; see SeedFingerprint).

// AppendBandKeys appends the bucket key of set for every band, in band
// order, and returns the extended slice. Empty sets have no min-hash and
// are rejected, mirroring Insert/Query.
func (mh *MinHash) AppendBandKeys(dst []uint64, set []uint32) ([]uint64, error) {
	return appendBandKeys(dst, mh.seeds, set)
}

// AppendBandKeys is the snapshot form; it computes exactly the keys the
// live index computes.
func (v *View) AppendBandKeys(dst []uint64, set []uint32) ([]uint64, error) {
	return appendBandKeys(dst, v.seeds, set)
}

func appendBandKeys(dst []uint64, seeds [][]uint64, set []uint32) ([]uint64, error) {
	if len(set) == 0 {
		return dst, fmt.Errorf("lsh: cannot minhash an empty set")
	}
	for b := range seeds {
		dst = append(dst, signature(seeds, b, set))
	}
	return dst, nil
}

// SeedFingerprint condenses the parameters that determine the band seed
// matrix — and therefore every band key this index will ever compute —
// into one value. A cold-tier catalog records it so a segment written
// under one hash family can never be probed under another.
func (mh *MinHash) SeedFingerprint() uint64 { return SeedFingerprintFor(mh.params) }

// SeedFingerprintFor is SeedFingerprint computed from parameters alone
// (defaults applied), so the fingerprint is available before an index is
// built. The seed matrix in NewMinHash is a pure function of the resolved
// (Seed, Bands, Rows) triple, so fingerprinting the triple fingerprints
// the matrix.
func SeedFingerprintFor(params MinHashParams) uint64 {
	params = params.withDefaults()
	fp := splitmix(uint64(params.Seed) ^ 0xfa57c01dfa57c01d)
	fp = splitmix(fp ^ uint64(params.Bands))
	fp = splitmix(fp ^ uint64(params.Rows))
	return fp
}
