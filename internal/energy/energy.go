// Package energy models smartphone energy consumption for the Figure 8
// experiments. The paper measures upload energy with a Monsoon power
// monitor; we replace the instrument with a parameterized model: radio
// transmission energy proportional to bytes sent (plus a per-transfer tail),
// and CPU energy proportional to compute time. The model's constants come
// from the battery-power literature the paper cites (streaming transmission
// measurements over WiFi).
package energy

import (
	"fmt"
	"time"
)

// Model holds the energy cost constants.
type Model struct {
	// TxJoulesPerMB is radio energy per megabyte transmitted.
	TxJoulesPerMB float64
	// TailJoules is the fixed radio tail-state cost per transfer batch.
	TailJoules float64
	// CPUWatts is the active-compute power draw.
	CPUWatts float64
	// IdleWatts is the baseline draw while the screen is awake (the paper's
	// setup keeps the screen on with fixed brightness).
	IdleWatts float64
}

// DefaultWiFi returns constants for WiFi uploads on a 2013-era smartphone:
// ~5 J/MB radio energy, 1 J tail, 1.5 W active CPU, 0.8 W awake-idle.
func DefaultWiFi() Model {
	return Model{TxJoulesPerMB: 5, TailJoules: 1, CPUWatts: 1.5, IdleWatts: 0.8}
}

// Transmission returns the radio energy (joules) for sending bytes.
func (m Model) Transmission(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return m.TxJoulesPerMB*float64(bytes)/1e6 + m.TailJoules
}

// Compute returns the CPU energy (joules) for the given active time.
func (m Model) Compute(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return m.CPUWatts * d.Seconds()
}

// Idle returns the baseline energy for the given elapsed time.
func (m Model) Idle(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return m.IdleWatts * d.Seconds()
}

// Recorder accumulates the energy of a sequence of events, standing in for
// the Monsoon monitor's integration of its power trace.
type Recorder struct {
	model  Model
	joules float64
}

// NewRecorder returns a recorder over the given model.
func NewRecorder(model Model) *Recorder { return &Recorder{model: model} }

// RecordTransmission accumulates the energy of a transfer of bytes taking
// elapsed time.
func (r *Recorder) RecordTransmission(bytes int64, elapsed time.Duration) {
	r.joules += r.model.Transmission(bytes) + r.model.Idle(elapsed)
}

// RecordCompute accumulates the energy of an active-CPU interval.
func (r *Recorder) RecordCompute(elapsed time.Duration) {
	r.joules += r.model.Compute(elapsed) + r.model.Idle(elapsed)
}

// TotalJoules returns the accumulated energy.
func (r *Recorder) TotalJoules() float64 { return r.joules }

// Savings returns the fractional energy saving of measured vs baseline.
// It returns an error when baseline is non-positive.
func Savings(baseline, measured float64) (float64, error) {
	if baseline <= 0 {
		return 0, fmt.Errorf("energy: baseline must be positive, got %v", baseline)
	}
	return 1 - measured/baseline, nil
}
