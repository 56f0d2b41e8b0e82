package store

import (
	"time"
)

// DiskModel charges latency for storage accesses. Random accesses pay seek
// plus rotational latency plus transfer; sequential accesses pay transfer
// only. The defaults model the evaluation cluster's 1TB 7200RPM disks.
type DiskModel struct {
	Seek        time.Duration // average seek
	Rotational  time.Duration // average rotational latency (half a revolution)
	TransferBps float64       // sustained transfer rate, bytes/second
}

// HDD7200 returns the model for the paper's 7200RPM disks:
// ~8.5ms seek, ~4.17ms rotational latency, ~120 MB/s transfer.
func HDD7200() DiskModel {
	return DiskModel{
		Seek:        8500 * time.Microsecond,
		Rotational:  4170 * time.Microsecond,
		TransferBps: 120e6,
	}
}

// RAM returns an in-memory "device": per-access overhead of ~100ns and
// ~10 GB/s effective bandwidth, used to charge FAST's in-memory index work.
func RAM() DiskModel {
	return DiskModel{
		Seek:        100 * time.Nanosecond,
		Rotational:  0,
		TransferBps: 10e9,
	}
}

// RandomRead returns the latency of one random read of size bytes.
func (d DiskModel) RandomRead(size int64) time.Duration {
	return d.Seek + d.Rotational + d.transfer(size)
}

// SequentialRead returns the latency of reading size bytes sequentially
// (no positioning cost).
func (d DiskModel) SequentialRead(size int64) time.Duration {
	return d.transfer(size)
}

// RandomWrite returns the latency of one random write of size bytes
// (modeled identically to a random read).
func (d DiskModel) RandomWrite(size int64) time.Duration {
	return d.RandomRead(size)
}

func (d DiskModel) transfer(size int64) time.Duration {
	if size <= 0 || d.TransferBps <= 0 {
		return 0
	}
	sec := float64(size) / d.TransferBps
	return time.Duration(sec * float64(time.Second))
}

// NetworkModel charges transmission latency over a link.
type NetworkModel struct {
	RTT          time.Duration // round-trip latency
	BandwidthBps float64       // bytes/second
}

// GigabitEthernet models the evaluation cluster's interconnect.
func GigabitEthernet() NetworkModel {
	return NetworkModel{RTT: 200 * time.Microsecond, BandwidthBps: 125e6}
}

// WiFi models the smartphone uplink used in the Figure 8 experiments
// (~20 Mbit/s effective, ~10ms RTT).
func WiFi() NetworkModel {
	return NetworkModel{RTT: 10 * time.Millisecond, BandwidthBps: 2.5e6}
}

// Transfer returns the time to move size bytes over the link, including one
// round trip of setup.
func (n NetworkModel) Transfer(size int64) time.Duration {
	if n.BandwidthBps <= 0 {
		return n.RTT
	}
	sec := float64(size) / n.BandwidthBps
	return n.RTT + time.Duration(sec*float64(time.Second))
}
