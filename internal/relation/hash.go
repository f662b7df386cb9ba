package relation

import (
	"math"

	"github.com/sampling-algebra/gus/internal/hashtab"
)

// Canonical join-key hashing. IntHash/FloatHash/StringHash are THE per-kind
// hash encodings, mirroring IntKey/FloatKey/StringKey exactly: two values
// whose Key() strings are equal always hash equal (the converse is resolved
// by the FloatKeyEqual/IntFloatKeyEqual full compares), so hash-keyed joins
// match precisely the pairs the string-keyed ops.HashJoin matches.
//
// The numeric canonicalization copies FloatKey's: an integral float with
// |v| < 1e15 shares the integer key space (hash of its int64 value); every
// other float hashes by bit pattern, with all NaNs collapsed to one hash —
// FormatFloat renders every NaN as "NaN", so NaN keys compare equal.

// floatTag decorrelates the non-integral float hash domain from raw ints.
const floatTag = 0x8c7b9fd1e53a2b47

// canonicalNaN stands in for every NaN payload.
const canonicalNaN = 0x7ff8000000000001

// IntHash hashes an integer join key.
func IntHash(v int64) uint64 { return hashtab.Mix(uint64(v)) }

// FloatHash hashes a float join key with FloatKey's int-normalization.
func FloatHash(v float64) uint64 {
	if i, ok := floatAsIntKey(v); ok {
		return IntHash(i)
	}
	if math.IsNaN(v) {
		return hashtab.Mix(canonicalNaN ^ floatTag)
	}
	return hashtab.Mix(math.Float64bits(v) ^ floatTag)
}

// StringHash hashes a string join key.
func StringHash(v string) uint64 { return hashtab.String(v) }

// floatAsIntKey reports whether FloatKey(v) lives in the integer key space,
// and if so which integer.
func floatAsIntKey(v float64) (int64, bool) {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return int64(v), true
	}
	return 0, false
}

// FloatKeyEqual reports FloatKey(a) == FloatKey(b) without materializing
// the strings: int-normalized comparison for integral values, bit equality
// otherwise, all NaNs equal.
func FloatKeyEqual(a, b float64) bool {
	ai, aok := floatAsIntKey(a)
	bi, bok := floatAsIntKey(b)
	if aok != bok {
		return false
	}
	if aok {
		return ai == bi
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// IntFloatKeyEqual reports IntKey(i) == FloatKey(f).
func IntFloatKeyEqual(i int64, f float64) bool {
	fi, ok := floatAsIntKey(f)
	return ok && fi == i
}

// StrDict is a per-relation string-column dictionary: the distinct values
// in first-appearance order plus their precomputed StringHash values. A
// dictionary-encoded column stores int32 codes into Strs; hashing a row is
// then one array lookup and equality within a dictionary is a code compare.
type StrDict struct {
	Strs   []string
	Hashes []uint64
}
