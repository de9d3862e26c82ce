#include "probe.hh"

void
Probe::tick(Cycle now)
{
    samples_ += 1;
}
