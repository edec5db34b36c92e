package compress

// CheckBPCAgainstRef exposes the fused-kernel oracle check to the
// external test package, whose tests import packages that import this
// one.
var CheckBPCAgainstRef = checkBPCAgainstRef
