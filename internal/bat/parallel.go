package bat

import "repro/internal/exec"

// SerialCutoff re-exports the serial/parallel boundary of the execution
// substrate; the chunked kernels and their boundary-probing tests reference
// it through this package.
const SerialCutoff = exec.SerialCutoff
