package main

// The end-to-end times are corrected for the speed the host gives the run.
// A vCPU of a shared host runs the same code up to twice as slow while
// other tenants are busy, in phases that last from a second to minutes.
// Over five to six 50-second cold runs of the same code the mean latency
// spread by 11–21% (quartile distance over median), and no statistic of
// one window's own latencies (median, fastest request, fastest stretch of
// requests) held steadier than a tenth. So right after each answer and
// each boot the benchmark runs a reference kernel of its own, a fixed
// piece of floating-point work that shares no code with the program, and
// scales each time by how long the kernel took then: a time t measured
// while the kernel took r is reported as t·refMs/r, what it would have
// read at the speed at which the kernel takes refMs. A change to the
// program still moves the scaled times in full, since the kernel does not
// depend on it.
//
// Two choices made the scaling track the program. run.sh pins the run to
// one vCPU, so that the kernel runs where the request ran: on two vCPUs
// the scaled cold latency still spread by 7%. And the kernel has GRAPE's
// shape: 4×4 complex matrix products over forward and backward arrays of
// segments, 192 KB in all, beyond the first-level cache. A kernel of the
// same products inside the first-level cache, paired with it request by
// request over six cold runs, left a spread of 8.6% where this one left
// 2.3%: a busy neighbour slows code that streams through the second-level
// cache more than code that does not.

import "time"

const (
	// refSegments is the length of the kernel's segment arrays.
	refSegments = 256
	// refSweeps is how many forward and backward passes one run of the
	// kernel makes.
	refSweeps = 180
	// refMs is the speed the times are scaled to: the kernel's time on an
	// uncontended vCPU of the 2-vCPU Intel Xeon host the benchmark was
	// tuned on (15–16 ms), so that scaled times read close to what that
	// host measures when no other tenant is busy.
	refMs = 15.0
)

// refU holds the kernel's segment matrices, refF and refB its forward and
// backward products.
var refU, refF, refB [refSegments][4][4]complex128

// refSink keeps the kernel's result, so its work stays.
var refSink complex128

// reference runs the reference kernel once and returns its time. Filling
// the segment matrices first brings them into cache, as a training's own
// segments are.
func reference() time.Duration {
	for s := range refU {
		for i := range refU[s] {
			for j := range refU[s][i] {
				refU[s][i][j] = complex(float64((i+j+s)%3-1), float64((i*j+s)%3-1)) / 4
			}
		}
	}
	begin := time.Now()
	for sweep := 0; sweep < refSweeps; sweep++ {
		prev := [4][4]complex128{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
		for s := range refU {
			var p [4][4]complex128
			for i := range p {
				for j := range p[i] {
					var acc complex128
					for l := range prev {
						acc += refU[s][i][l] * prev[l][j]
					}
					p[i][j] = acc
				}
			}
			refF[s] = p
			prev = refU[s*7%refSegments]
		}
		for s := refSegments - 1; s > 0; s-- {
			var p [4][4]complex128
			for i := range p {
				for j := range p[i] {
					var acc complex128
					for l := range prev {
						acc += refF[s][i][l] * refU[s-1][l][j]
					}
					p[i][j] = acc
				}
			}
			refB[s] = p
		}
	}
	d := time.Since(begin)
	refSink += refB[9][1][2]
	return d
}

// scaled returns a time measured while the reference kernel took ref, in
// milliseconds at the speed at which it takes refMs.
func scaled(t, ref time.Duration) float64 { return ms(t) * refMs / ms(ref) }
