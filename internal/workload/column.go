// Package workload generates the synthetic tables the experiments run on.
//
// The paper's analysis depends on the data only through (n, d, frequency
// skew, ℓ-distribution); the generators sweep exactly those knobs while
// guaranteeing two properties the estimators rely on:
//
//   - determinism: a (seed, row index) pair always produces the same row,
//     so the same logical table can be re-visited without materialization
//     (VirtualTable) and every experiment is exactly reproducible;
//   - distinctness: different domain indices always map to different
//     payloads, so "d distinct domain values drawn" equals "d distinct
//     column values stored" and ground-truth d is exact.
package workload

import (
	"encoding/binary"
	"fmt"
	"slices"

	"samplecf/internal/distrib"
	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// ColumnGen produces the payload of one column as a deterministic function
// of the domain index drawn for a row.
type ColumnGen interface {
	// Type returns the column's logical type.
	Type() value.Type
	// Dist returns the distribution over domain indices.
	Dist() distrib.Discrete
	// Payload materializes the payload for domain index v. It must be
	// deterministic in v and injective (distinct v ⇒ distinct payload).
	// Implementations return AppendPayload(nil, v).
	Payload(v int64) []byte
	// AppendPayload appends the payload for domain index v to dst and
	// returns the extended slice — the allocation-free form of Payload
	// that Generate uses to write payloads straight into its slab.
	AppendPayload(dst []byte, v int64) []byte
	// Describe identifies the generator in experiment output.
	Describe() string
}

// base62 digits used for the uniqueness prefix of string payloads.
const base62 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

// digitsFor returns the number of base-62 digits needed to encode any
// domain index below domain.
func digitsFor(domain int64) int {
	digits := 1
	for limit := int64(62); limit < domain; limit *= 62 {
		digits++
		if limit > domain/62 { // overflow guard
			break
		}
	}
	return digits
}

// encodeBase62 writes v as exactly `digits` base-62 characters into dst.
func encodeBase62(dst []byte, v int64, digits int) {
	for i := digits - 1; i >= 0; i-- {
		dst[i] = base62[v%62]
		v /= 62
	}
}

// StringColumn generates character payloads: a base-62 uniqueness prefix
// (identifying the domain index) followed by pseudo-random filler up to a
// length drawn from Lengths. The drawn length is clamped up to the prefix
// width, so extremely short length distributions over huge domains degrade
// gracefully (documented bias toward the prefix width).
type StringColumn struct {
	Typ     value.Type
	D       distrib.Discrete
	Lengths distrib.Lengths
	Seed    uint64

	digits int
}

// NewStringColumn validates and builds a string column generator.
func NewStringColumn(typ value.Type, d distrib.Discrete, lengths distrib.Lengths, seed uint64) (*StringColumn, error) {
	if !typ.IsCharacter() {
		return nil, fmt.Errorf("workload: string column needs character type, got %s", typ)
	}
	if err := typ.Validate(); err != nil {
		return nil, err
	}
	digits := digitsFor(d.Domain())
	if digits > typ.Length {
		return nil, fmt.Errorf("workload: domain %d needs %d prefix chars, %s holds %d",
			d.Domain(), digits, typ, typ.Length)
	}
	if lengths.MaxLen() > typ.Length {
		return nil, fmt.Errorf("workload: max length %d exceeds %s", lengths.MaxLen(), typ)
	}
	return &StringColumn{Typ: typ, D: d, Lengths: lengths, Seed: seed, digits: digits}, nil
}

// Type implements ColumnGen.
func (s *StringColumn) Type() value.Type { return s.Typ }

// Dist implements ColumnGen.
func (s *StringColumn) Dist() distrib.Discrete { return s.D }

// Payload implements ColumnGen.
func (s *StringColumn) Payload(v int64) []byte { return s.AppendPayload(nil, v) }

// AppendPayload implements ColumnGen.
func (s *StringColumn) AppendPayload(dst []byte, v int64) []byte {
	r := rng.New(s.Seed ^ uint64(v)*0x9e3779b97f4a7c15)
	l := s.Lengths.DrawLen(r)
	if l < s.digits {
		l = s.digits
	}
	start := len(dst)
	dst = slices.Grow(dst, l)[:start+l]
	out := dst[start:]
	encodeBase62(out[:s.digits], v, s.digits)
	for i := s.digits; i < l; i++ {
		out[i] = byte('a' + r.Intn(26))
	}
	return dst
}

// Describe implements ColumnGen.
func (s *StringColumn) Describe() string {
	return fmt.Sprintf("%s %s len=%s", s.Typ, s.D.Name(), s.Lengths.Name())
}

// IntColumn generates integer payloads: the domain index plus an offset.
type IntColumn struct {
	Typ    value.Type
	D      distrib.Discrete
	Offset int64
}

// NewIntColumn validates and builds an integer column generator.
func NewIntColumn(typ value.Type, d distrib.Discrete, offset int64) (*IntColumn, error) {
	switch typ.Kind {
	case value.KindInt32:
		if max := d.Domain() - 1 + offset; max > 1<<31-1 || offset < -(1<<31) {
			return nil, fmt.Errorf("workload: domain %d with offset %d overflows INT", d.Domain(), offset)
		}
	case value.KindInt64:
		// int64 domain indexes cannot overflow int64 with reasonable offsets.
	default:
		return nil, fmt.Errorf("workload: int column needs integer type, got %s", typ)
	}
	return &IntColumn{Typ: typ, D: d, Offset: offset}, nil
}

// Type implements ColumnGen.
func (c *IntColumn) Type() value.Type { return c.Typ }

// Dist implements ColumnGen.
func (c *IntColumn) Dist() distrib.Discrete { return c.D }

// Payload implements ColumnGen.
func (c *IntColumn) Payload(v int64) []byte { return c.AppendPayload(nil, v) }

// AppendPayload implements ColumnGen: the big-endian bytes value.IntValue
// and value.Int64Value produce.
func (c *IntColumn) AppendPayload(dst []byte, v int64) []byte {
	if c.Typ.Kind == value.KindInt32 {
		return binary.BigEndian.AppendUint32(dst, uint32(int32(v+c.Offset)))
	}
	return binary.BigEndian.AppendUint64(dst, uint64(v+c.Offset))
}

// Describe implements ColumnGen.
func (c *IntColumn) Describe() string {
	return fmt.Sprintf("%s %s offset=%d", c.Typ, c.D.Name(), c.Offset)
}
