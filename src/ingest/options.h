// Ingest fan-out options: the same scan::ParallelScanOptions every parallel
// path takes (threads + executor; the ingest grain is the fixed
// scan::kIngestGrain). The alias keeps the ingest-side spelling that
// benchmark/ladder.h uses.
#pragma once

#include "scan/parallel_scan.h"

namespace pnbbst::ingest {

using IngestOptions = scan::ParallelScanOptions;

}  // namespace pnbbst::ingest
