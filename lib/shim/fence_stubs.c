/* Full memory barrier for Tatomic.Fence.full: a sequentially
   consistent thread fence orders earlier stores before later loads
   (StoreLoad) on every target, independent of how many domains the
   process runs.  No allocation, no exceptions: called [@@noalloc]. */

#include <stdatomic.h>
#include <caml/mlvalues.h>

value repro_fence_full(value cell)
{
  (void)cell;
  atomic_thread_fence(memory_order_seq_cst);
  return Val_unit;
}
