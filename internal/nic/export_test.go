package nic

import "testing"

// externalDigestCases are TestTopologyDigests cases registered by the
// external test package: runs built by packages that import nic (core's
// offload builders), which this package's own tests cannot import.
var externalDigestCases []digestCase

// AddDigestCase registers a TestTopologyDigests case from the external
// test package. Call it from an init function, so the case exists before
// any test runs.
func AddDigestCase(name string, run func(t *testing.T, workers int) (results []any, bufs [][]byte)) {
	externalDigestCases = append(externalDigestCases, digestCase{name, run})
}
