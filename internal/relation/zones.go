package relation

import "math"

// DefaultZoneRows is the partition granularity zone maps are computed at.
// It MUST equal the engine's morsel size (ops.DefaultPartitionSize): the
// fused kernels can only skip a zone when zone boundaries coincide with
// the partition spans the kernels iterate, and the engine checks the two
// sizes match before consulting a zone map.
const DefaultZoneRows = 4096

// Zone flag bits.
const (
	// ZoneHasNaN marks a float zone containing at least one NaN row. NaN
	// compares false against everything, but NOT(cmp) turns that into
	// true — so a pruner must treat a NaN-bearing column as unknowable.
	ZoneHasNaN = 1 << iota
	// ZoneNoStats marks a zone with no usable min/max (string columns).
	ZoneNoStats
)

// Zone is one (partition, column) zone-map entry: the column's min/max
// over the partition's rows (MinI/MaxI for int columns, MinF/MaxF for
// float columns, computed over non-NaN values), a null count (always 0
// today — the engine has no NULLs — kept so the on-disk format is ready
// for them), and flag bits.
type Zone struct {
	MinI, MaxI int64
	MinF, MaxF float64
	Nulls      uint32
	Flags      uint32
}

// Zones is a relation snapshot's zone map: one Zone per (partition,
// column) pair at ZoneRows granularity, partition-major.
type Zones struct {
	ZoneRows int
	NCols    int
	Z        []Zone // Z[part*NCols + col]
}

// Parts returns the number of zoned partitions.
func (z *Zones) Parts() int {
	if z.NCols == 0 {
		return 0
	}
	return len(z.Z) / z.NCols
}

// At returns the zone entry for (part, col).
func (z *Zones) At(part, col int) Zone { return z.Z[part*z.NCols+col] }

// BuildZones computes the zone map of a columnar image: ⌈rows/zoneRows⌉
// consecutive partitions, min/max per numeric column each. String columns
// get ZoneNoStats entries; float partitions containing NaN are flagged
// ZoneHasNaN (their min/max cover the non-NaN values only).
func BuildZones(cols []ColumnSlice, rows, zoneRows int) *Zones {
	if zoneRows <= 0 {
		zoneRows = DefaultZoneRows
	}
	z := &Zones{ZoneRows: zoneRows, NCols: len(cols), Z: make([]Zone, 0, (rows+zoneRows-1)/zoneRows*len(cols))}
	z.extend(cols, rows)
	return z
}

// extend appends the zones of every partition of cols' first rows rows
// that z does not cover yet; the last may be partial.
func (z *Zones) extend(cols []ColumnSlice, rows int) {
	if z.NCols == 0 {
		return
	}
	for lo := z.Parts() * z.ZoneRows; lo < rows; lo += z.ZoneRows {
		hi := min(lo+z.ZoneRows, rows)
		for _, c := range cols {
			z.Z = append(z.Z, zoneOf(c, lo, hi))
		}
	}
}

func zoneOf(c ColumnSlice, lo, hi int) Zone {
	switch c.Kind {
	case KindInt:
		mn, mx := c.Ints[lo], c.Ints[lo]
		for _, v := range c.Ints[lo+1 : hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return Zone{MinI: mn, MaxI: mx}
	case KindFloat:
		var zn Zone
		seen := false
		for _, v := range c.Floats[lo:hi] {
			if math.IsNaN(v) {
				zn.Flags |= ZoneHasNaN
				continue
			}
			if !seen {
				zn.MinF, zn.MaxF, seen = v, v, true
				continue
			}
			if v < zn.MinF {
				zn.MinF = v
			}
			if v > zn.MaxF {
				zn.MaxF = v
			}
		}
		if !seen {
			// All-NaN partition: no usable range.
			zn.Flags |= ZoneNoStats
		}
		return zn
	default:
		return Zone{Flags: ZoneNoStats}
	}
}
