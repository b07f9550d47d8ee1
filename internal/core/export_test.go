package core

import "testing"

// Test-only exports for the external core_test package (golden_test.go),
// which imports internal/scenario and so cannot live in package core.

// PartitionGMConfig exposes partitionGMConfig.
func PartitionGMConfig(seed int64) Config { return partitionGMConfig(seed) }

// MetaPromoteConfig exposes metaPromoteConfig.
func MetaPromoteConfig(t *testing.T) Config { return metaPromoteConfig(t) }
