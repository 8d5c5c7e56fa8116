//go:build race

package testkit

// Enabled is true when the build has -race instrumentation, so
// allocation-budget tests can skip themselves: race instrumentation
// allocates on paths that are allocation free in a normal build.
const Enabled = true
