package energy

import (
	"math"
	"testing"
	"time"
)

func TestTransmissionScalesWithBytes(t *testing.T) {
	m := DefaultWiFi()
	if m.Transmission(0) != 0 {
		t.Error("zero bytes should cost nothing")
	}
	small := m.Transmission(1 << 20)
	large := m.Transmission(10 << 20)
	if large <= small {
		t.Errorf("10MB (%v J) not more than 1MB (%v J)", large, small)
	}
	// Tail cost makes two small transfers more expensive than one combined.
	if 2*m.Transmission(1<<20) <= m.Transmission(2<<20) {
		t.Error("per-transfer tail cost missing")
	}
}

func TestComputeAndIdle(t *testing.T) {
	m := DefaultWiFi()
	if m.Compute(0) != 0 || m.Idle(-time.Second) != 0 {
		t.Error("non-positive durations should cost nothing")
	}
	if math.Abs(m.Compute(2*time.Second)-3.0) > 1e-9 {
		t.Errorf("Compute(2s) = %v, want 3 J at 1.5 W", m.Compute(2*time.Second))
	}
	if math.Abs(m.Idle(time.Second)-0.8) > 1e-9 {
		t.Errorf("Idle(1s) = %v, want 0.8 J", m.Idle(time.Second))
	}
}

func TestRecorderAccumulates(t *testing.T) {
	m := DefaultWiFi()
	r := NewRecorder(m)
	r.RecordTransmission(5<<20, 2*time.Second)
	r.RecordCompute(time.Second)
	want := m.Transmission(5<<20) + m.Idle(2*time.Second) + m.Compute(time.Second) + m.Idle(time.Second)
	if got := r.TotalJoules(); got <= 0 || math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalJoules = %v, want %v", got, want)
	}
}

func TestSavings(t *testing.T) {
	s, err := Savings(100, 40)
	if err != nil || math.Abs(s-0.6) > 1e-12 {
		t.Errorf("Savings = %v, %v; want 0.6", s, err)
	}
	if _, err := Savings(0, 10); err == nil {
		t.Error("zero baseline should fail")
	}
	s, _ = Savings(50, 60)
	if s >= 0 {
		t.Errorf("regression should yield negative savings, got %v", s)
	}
}
