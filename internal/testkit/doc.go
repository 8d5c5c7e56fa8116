// Package testkit is the test support that several packages' tests
// share: whether the race detector is compiled in, structural
// comparisons of object graphs, and a random MiniJP program generator.
// Only _test.go files import it; the module's TestProductionSurface
// fails on a non-test file that does.
package testkit
