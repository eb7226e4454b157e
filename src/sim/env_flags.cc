#include "sim/env_flags.hh"

#include <cstdlib>
#include <cstring>

namespace accesys {

namespace {

/// Boolean knob: unset or empty keeps `dflt`, "0" is off, anything else on.
bool read_bool(const char* name, bool dflt)
{
    const char* v = std::getenv(name);
    if (v == nullptr || v[0] == '\0') {
        return dflt;
    }
    return std::strcmp(v, "0") != 0;
}

EnvFlags& snapshot()
{
    static EnvFlags flags = EnvFlags::read();
    return flags;
}

} // namespace

EnvFlags EnvFlags::read()
{
    EnvFlags f;
    f.no_batch = read_bool("ACCESYS_NO_BATCH", f.no_batch);
    f.no_hop_fusion = read_bool("ACCESYS_NO_HOP_FUSION", f.no_hop_fusion);
    f.eager_credits = read_bool("ACCESYS_EAGER_CREDITS", f.eager_credits);
    f.faults = read_bool("ACCESYS_FAULTS", f.faults);
    if (const char* t = std::getenv("ACCESYS_THREADS")) {
        const long n = std::strtol(t, nullptr, 10);
        f.threads = n > 1 ? static_cast<unsigned>(n) : 1;
    }
    return f;
}

const EnvFlags& EnvFlags::get()
{
    return snapshot();
}

void EnvFlags::set_for_test(const EnvFlags& flags)
{
    snapshot() = flags;
}

} // namespace accesys
