// Umbrella header: the full public API of the fpart library.
//
//   #include "core/fpart.h"
//
// brings in relation storage and workload generation, the CPU and FPGA
// partitioners, the radix / hybrid / non-partitioned joins, the QPI
// platform models, and the analytical cost model.
#pragma once

#include "common/env.h"            // bench scaling knobs
#include "common/status.h"         // Status / Result
#include "compress/for_codec.h"    // FOR bit-packed key columns (Section 6)
#include "core/engine.h"           // unified partitioning API
#include "cpu/partitioner.h"       // software baselines (Code 1 / Code 2)
#include "datagen/distribution.h"  // key distributions (Section 3.2)
#include "datagen/partitioned_output.h"
#include "datagen/relation.h"
#include "datagen/tuple.h"
#include "datagen/workloads.h"     // Table 4 workloads
#include "datagen/zipf.h"          // skew generator (Section 5.4)
#include "dist/cluster.h"          // sharded multi-node service federation
#include "dist/distributed_join.h" // RDMA-distributed join (Section 6)
#include "dist/network.h"
#include "dist/shard_map.h"        // versioned bucket -> owner routing
#include "fpga/partitioner.h"      // the FPGA circuit simulator (Section 4)
#include "fpga/resource_model.h"   // Table 2
#include "groupby/group_by.h"      // partitioned aggregation (Section 6)
#include "hash/hash_function.h"    // murmur / radix partitioning attributes
#include "join/hybrid_join.h"      // CPU+FPGA hybrid join (Section 5)
#include "join/materialize.h"      // joined-row materialization
#include "join/no_partition_join.h"
#include "join/radix_join.h"       // pure-CPU radix join (Section 3.3)
#include "join/sort_merge_join.h"  // sort-based baseline ([31] context)
#include "model/cost_model.h"      // analytical model (Section 4.6)
#include "model/cpu_model.h"       // calibrated Xeon baseline model
#include "model/paper_constants.h" // the paper's reported numbers
#include "qpi/bandwidth_model.h"   // Figure 2
#include "qpi/coherence.h"         // Table 1
#include "qpi/page_table.h"        // FPGA-side VA→PA translation
#include "qpi/qpi_link.h"          // token-bucket link model
#include "qpi/shared_memory.h"     // 4 MB-page shared pool
