package vectorize

import (
	"math"
	"testing"
	"time"
)

func schemaOrDie(t *testing.T, fields []Field) *Schema {
	t.Helper()
	s, err := NewSchema(fields)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(nil); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewSchema([]Field{{Name: ""}}); err == nil {
		t.Error("unnamed field should fail")
	}
	if _, err := NewSchema([]Field{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate field should fail")
	}
	if _, err := NewSchema([]Field{{Name: "a", Kind: Categorical, Dims: -1}}); err == nil {
		t.Error("negative dims should fail")
	}
}

func TestDimLayout(t *testing.T) {
	s := schemaOrDie(t, []Field{
		{Name: "size", Kind: LogNumeric},
		{Name: "owner", Kind: Categorical, Dims: 16},
		{Name: "mtime", Kind: Timestamp},
		{Name: "name", Kind: Text, Dims: 32},
	})
	if s.dim != 1+16+4+32 {
		t.Errorf("Dim = %d, want 53", s.dim)
	}
}

func TestNumericEncoding(t *testing.T) {
	s := schemaOrDie(t, []Field{{Name: "x", Kind: Numeric, Weight: 2}})
	v, err := s.Vector(Record{"x": 3.5})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 7 {
		t.Errorf("v[0] = %v, want 7", v[0])
	}
	// Integer types accepted.
	for _, raw := range []interface{}{int(3), int64(3), uint64(3), float32(3)} {
		v, err := s.Vector(Record{"x": raw})
		if err != nil || v[0] != 6 {
			t.Errorf("%T: v = %v, err = %v", raw, v, err)
		}
	}
	if _, err := s.Vector(Record{"x": "nope"}); err == nil {
		t.Error("string in numeric field should fail")
	}
}

func TestLogNumericSymmetry(t *testing.T) {
	s := schemaOrDie(t, []Field{{Name: "x", Kind: LogNumeric}})
	pos, _ := s.Vector(Record{"x": 100.0})
	neg, _ := s.Vector(Record{"x": -100.0})
	if pos[0] <= 0 || neg[0] >= 0 || pos[0] != -neg[0] {
		t.Errorf("log encoding asymmetric: %v vs %v", pos[0], neg[0])
	}
	big, _ := s.Vector(Record{"x": 1e9})
	if big[0] > 25 {
		t.Errorf("log encoding did not compress: %v", big[0])
	}
}

func TestCategoricalEncoding(t *testing.T) {
	s := schemaOrDie(t, []Field{{Name: "owner", Kind: Categorical, Dims: 16}})
	a1, _ := s.Vector(Record{"owner": "alice"})
	a2, _ := s.Vector(Record{"owner": "alice"})
	b, _ := s.Vector(Record{"owner": "bob"})
	var nonZeroA, dot float64
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			same = false
		}
		if a1[i] != 0 {
			nonZeroA++
		}
		dot += a1[i] * b[i]
	}
	if !same {
		t.Error("categorical encoding not deterministic")
	}
	if nonZeroA != 1 {
		t.Errorf("categorical should set exactly one component, set %v", nonZeroA)
	}
	if dot != 0 {
		t.Error("distinct categories should hash to distinct bins here")
	}
	if _, err := s.Vector(Record{"owner": 42}); err == nil {
		t.Error("non-string categorical should fail")
	}
}

func TestTimestampCyclical(t *testing.T) {
	s := schemaOrDie(t, []Field{{Name: "t", Kind: Timestamp}})
	midnight, _ := s.Vector(Record{"t": time.Date(2014, 10, 6, 0, 0, 0, 0, time.UTC)})
	almostMidnight, _ := s.Vector(Record{"t": time.Date(2014, 10, 6, 23, 59, 0, 0, time.UTC)})
	noon, _ := s.Vector(Record{"t": time.Date(2014, 10, 6, 12, 0, 0, 0, time.UTC)})
	dist := func(a, b []float64) float64 {
		var d float64
		for i := range a[:2] { // hour components only
			d += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(d)
	}
	if dist(midnight, almostMidnight) >= dist(midnight, noon) {
		t.Error("cyclical encoding broken: 23:59 farther from 00:00 than noon")
	}
	if _, err := s.Vector(Record{"t": "2014"}); err == nil {
		t.Error("non-time timestamp should fail")
	}
}

func TestTextBagOfWords(t *testing.T) {
	s := schemaOrDie(t, []Field{{Name: "desc", Kind: Text, Dims: 64}})
	a, _ := s.Vector(Record{"desc": "holiday photo at the tower"})
	b, _ := s.Vector(Record{"desc": "photo at the tower on holiday"})
	c, _ := s.Vector(Record{"desc": "quarterly budget spreadsheet"})
	cos := func(x, y []float64) float64 {
		var dot, nx, ny float64
		for i := range x {
			dot += x[i] * y[i]
			nx += x[i] * x[i]
			ny += y[i] * y[i]
		}
		if nx == 0 || ny == 0 {
			return 0
		}
		return dot / math.Sqrt(nx*ny)
	}
	if cos(a, b) < 0.8 { // b has one extra token ("on")
		t.Errorf("same-word texts cosine %v, want ~1", cos(a, b))
	}
	if cos(a, c) >= cos(a, b) {
		t.Errorf("unrelated text as close as related: %v vs %v", cos(a, c), cos(a, b))
	}
}

func TestMissingFieldsEncodeAsZeros(t *testing.T) {
	s := schemaOrDie(t, []Field{
		{Name: "x", Kind: Numeric},
		{Name: "owner", Kind: Categorical, Dims: 4},
	})
	v, err := s.Vector(Record{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 5 {
		t.Fatalf("len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("component %d = %v, want 0", i, x)
		}
	}
}

func TestVectorStableLayout(t *testing.T) {
	s := schemaOrDie(t, []Field{
		{Name: "a", Kind: Numeric},
		{Name: "b", Kind: Numeric},
	})
	v, _ := s.Vector(Record{"a": 1.0, "b": 2.0})
	if v[0] != 1 || v[1] != 2 {
		t.Errorf("layout not schema-ordered: %v", v)
	}
}
