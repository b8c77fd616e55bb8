let image_bytes ~lanes ~table_slots ~requests =
  Hash_probe.image_bytes ~lanes ~table_slots ~ops:requests

let make ?image ?(manual = false) ?(lanes = 1) ?(table_slots = 8192) ?(requests = 2000)
    ?(service_compute = 20) ~seed () =
  Hash_probe.make ?image ~name:"kv-server" ~manual ~lanes ~table_slots ~fill:0.5 ~ops:requests
    ~compute:service_compute ~seed ()
