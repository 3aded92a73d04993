#include "util/time.h"

#include <sstream>

#include "util/check.h"

namespace ctesim::sim::detail {

void time_out_of_range(double seconds) {
  std::ostringstream os;
  os << "sim::from_seconds: " << seconds
     << " s is not a finite time within the simulated clock's range "
        "(int64 picoseconds, about 106 days)";
  throw ContractError(os.str());
}

}  // namespace ctesim::sim::detail
