// Package vectorize implements the Vector Extraction (VE) module of the
// FAST methodology for non-image data (Figure 1, Section II-A): "most data
// types can be represented as vectors based on their multi-dimensional
// attributes, including metadata (e.g., created time, size,
// filename/record-name) and contents (e.g., chunk fingerprints ...)".
//
// A Schema maps a record's typed fields onto a fixed-dimensional float
// vector: numeric fields become scaled components, categorical fields are
// feature-hashed into sign bins, timestamps become cyclical (sin/cos)
// encodings, and free text is token-hashed. The resulting vectors feed the
// same SM→SA→CHS pipeline the image use case uses — this is what lets FAST
// serve as "a system middleware" over Spyglass/SmartStore-class metadata
// (Table I).
package vectorize

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Kind selects a field encoder.
type Kind uint8

// Supported field kinds.
const (
	// Numeric encodes a float64 (or integer) as Weight * scale(value).
	Numeric Kind = iota
	// LogNumeric encodes Weight * log1p(|value|) * sign — robust for sizes
	// and counts spanning orders of magnitude.
	LogNumeric
	// Categorical feature-hashes a string into Dims components of ±Weight.
	Categorical
	// Timestamp encodes a time.Time as cyclical hour-of-day and day-of-week
	// components (4 dims) scaled by Weight.
	Timestamp
	// Text token-hashes a free-text string into Dims components
	// (bag-of-words with the hashing trick).
	Text
)

// Field describes one record attribute.
type Field struct {
	Name   string
	Kind   Kind
	Weight float64 // component scale; 0 means 1
	Dims   int     // hashed width for Categorical/Text; 0 means 8
}

// Schema is an ordered field list; the output vector layout is the
// concatenation of each field's encoding.
type Schema struct {
	fields []Field
	dim    int
}

// NewSchema validates the field list and computes the output layout.
func NewSchema(fields []Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("vectorize: schema needs at least one field")
	}
	s := &Schema{fields: make([]Field, len(fields))}
	seen := map[string]bool{}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("vectorize: field %d has no name", i)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("vectorize: duplicate field %q", f.Name)
		}
		seen[f.Name] = true
		if f.Weight == 0 {
			f.Weight = 1
		}
		if f.Dims == 0 {
			f.Dims = 8
		}
		if f.Dims < 1 {
			return nil, fmt.Errorf("vectorize: field %q has dims %d", f.Name, f.Dims)
		}
		s.fields[i] = f
		s.dim += fieldWidth(f)
	}
	return s, nil
}

func fieldWidth(f Field) int {
	switch f.Kind {
	case Numeric, LogNumeric:
		return 1
	case Timestamp:
		return 4
	case Categorical, Text:
		return f.Dims
	default:
		return 0
	}
}

// Record is one data item: field name → value. Supported value types per
// kind: Numeric/LogNumeric take float64, int, int64; Categorical and Text
// take string; Timestamp takes time.Time.
type Record map[string]interface{}

// Vector encodes the record under the schema. Missing fields encode as
// zeros (absent attributes carry no affinity); mistyped fields are errors.
func (s *Schema) Vector(r Record) ([]float64, error) {
	out := make([]float64, 0, s.dim)
	for _, f := range s.fields {
		val, present := r[f.Name]
		enc, err := encodeField(f, val, present)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	return out, nil
}

func encodeField(f Field, val interface{}, present bool) ([]float64, error) {
	width := fieldWidth(f)
	if !present {
		return make([]float64, width), nil
	}
	switch f.Kind {
	case Numeric, LogNumeric:
		x, err := toFloat(val)
		if err != nil {
			return nil, fmt.Errorf("vectorize: field %q: %w", f.Name, err)
		}
		if f.Kind == LogNumeric {
			sign := 1.0
			if x < 0 {
				sign = -1
			}
			x = sign * math.Log1p(math.Abs(x))
		}
		return []float64{f.Weight * x}, nil
	case Timestamp:
		t, ok := val.(time.Time)
		if !ok {
			return nil, fmt.Errorf("vectorize: field %q: want time.Time, got %T", f.Name, val)
		}
		hour := float64(t.Hour()) + float64(t.Minute())/60
		dow := float64(t.Weekday())
		return []float64{
			f.Weight * math.Sin(2*math.Pi*hour/24),
			f.Weight * math.Cos(2*math.Pi*hour/24),
			f.Weight * math.Sin(2*math.Pi*dow/7),
			f.Weight * math.Cos(2*math.Pi*dow/7),
		}, nil
	case Categorical:
		sv, ok := val.(string)
		if !ok {
			return nil, fmt.Errorf("vectorize: field %q: want string, got %T", f.Name, val)
		}
		enc := make([]float64, f.Dims)
		h := hashString(f.Name + "\x00" + sv)
		idx := int(h % uint64(f.Dims))
		sign := 1.0
		if (h>>32)&1 == 1 {
			sign = -1
		}
		enc[idx] = sign * f.Weight
		return enc, nil
	case Text:
		sv, ok := val.(string)
		if !ok {
			return nil, fmt.Errorf("vectorize: field %q: want string, got %T", f.Name, val)
		}
		enc := make([]float64, f.Dims)
		for _, tok := range strings.Fields(strings.ToLower(sv)) {
			h := hashString(f.Name + "\x00" + tok)
			idx := int(h % uint64(f.Dims))
			sign := 1.0
			if (h>>32)&1 == 1 {
				sign = -1
			}
			enc[idx] += sign * f.Weight
		}
		return enc, nil
	default:
		return nil, fmt.Errorf("vectorize: field %q has unknown kind %d", f.Name, f.Kind)
	}
}

func toFloat(v interface{}) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("want numeric, got %T", v)
	}
}

// hashString is FNV-1a 64 over the string bytes.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
