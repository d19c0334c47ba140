#include "arena.hpp"

#include <algorithm>

namespace blitz::sim {

void *
Arena::allocate(std::size_t bytes, std::size_t align)
{
    for (;;) {
        if (cur_ < chunks_.size()) {
            Chunk &c = chunks_[cur_];
            const std::size_t aligned = (off_ + align - 1) & ~(align - 1);
            if (aligned + bytes <= c.size) {
                off_ = aligned + bytes;
                used_ += bytes;
                if (used_ > usedHighWater_)
                    usedHighWater_ = used_;
                return c.mem.get() + aligned;
            }
            // Chunk exhausted (or too small for this request): move on.
            ++cur_;
            off_ = 0;
            continue;
        }
        // Geometric growth: each new chunk is at least as large as
        // everything reserved so far, so total capacity doubles per
        // growth. The slack this leaves is the steady-state allocation
        // guarantee — pool high-water marks (NoC in-flight packets,
        // event-slab nodes) creep slightly past their warmup peaks,
        // and the doubling absorbs that creep without a new chunk.
        const std::size_t size =
            std::max({chunkBytes_, bytes + align, reserved_});
        chunks_.push_back({std::make_unique<std::byte[]>(size), size});
        reserved_ += size;
    }
}

Arena &
threadArena()
{
    thread_local Arena arena;
    return arena;
}

} // namespace blitz::sim
