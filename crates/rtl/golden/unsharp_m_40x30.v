// Auto-generated by imagen-rtl for pipeline `Unsharp-m` (40x30 @ 16 bpp)
// Style: Ours. Do not edit.


module imagen_sram_1p #(
    parameter DEPTH = 512,
    parameter WIDTH = 16,
    parameter AW = 9
) (
    input  wire           clk,
    input  wire           en,
    input  wire           we,
    input  wire [AW-1:0]  addr,
    input  wire [WIDTH-1:0] wdata,
    output reg  [WIDTH-1:0] rdata
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    always @(posedge clk) begin
        if (en) begin
            if (we) mem[addr] <= wdata;
            rdata <= mem[addr];
        end
    end
endmodule

module imagen_sram_2p #(
    parameter DEPTH = 512,
    parameter WIDTH = 16,
    parameter AW = 9
) (
    input  wire           clk,
    input  wire           en_a,
    input  wire           we_a,
    input  wire [AW-1:0]  addr_a,
    input  wire [WIDTH-1:0] wdata_a,
    output reg  [WIDTH-1:0] rdata_a,
    input  wire           en_b,
    input  wire [AW-1:0]  addr_b,
    output reg  [WIDTH-1:0] rdata_b
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    always @(posedge clk) begin
        if (en_a) begin
            if (we_a) mem[addr_a] <= wdata_a;
            rdata_a <= mem[addr_a];
        end
        if (en_b) rdata_b <= mem[addr_b];
    end
endmodule
module stage_blur_h (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:4],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((((((win0[0]) + (((32'sd4) * (win0[1]))))) + (((32'sd6) * (win0[2]))))) + (((32'sd4) * (win0[3]))))) + (win0[4]))) >>> (32'sd4));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_blur_v (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:4],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((((((win0[0]) + (((32'sd4) * (win0[1]))))) + (((32'sd6) * (win0[2]))))) + (((32'sd4) * (win0[3]))))) + (win0[4]))) >>> (32'sd4));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_sharp (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:0],
    input  wire signed [15:0] win1 [0:0],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((win0[0]) + (((win0[0]) - (win1[0]))));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_sharpened (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:0],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = (((win0[0]) < (32'sd0)) ? (32'sd0) : (((win0[0]) > (32'sd255)) ? (32'sd255) : (win0[0])));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module linebuf_raw (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 6 physical rows over 6 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 6;
    wire [31:0] rphys = rrow % 6;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:5];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk1 (
        .clk(clk),
        .en_a(wen && wblk == 1),
        .we_a(wen && wblk == 1),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 1),
        .addr_b(raddr),
        .rdata_b(rdata_blk[1])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk2 (
        .clk(clk),
        .en_a(wen && wblk == 2),
        .we_a(wen && wblk == 2),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 2),
        .addr_b(raddr),
        .rdata_b(rdata_blk[2])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk3 (
        .clk(clk),
        .en_a(wen && wblk == 3),
        .we_a(wen && wblk == 3),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 3),
        .addr_b(raddr),
        .rdata_b(rdata_blk[3])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk4 (
        .clk(clk),
        .en_a(wen && wblk == 4),
        .we_a(wen && wblk == 4),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 4),
        .addr_b(raddr),
        .rdata_b(rdata_blk[4])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk5 (
        .clk(clk),
        .en_a(wen && wblk == 5),
        .we_a(wen && wblk == 5),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 5),
        .addr_b(raddr),
        .rdata_b(rdata_blk[5])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_blur_h (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 5 physical rows over 5 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 5;
    wire [31:0] rphys = rrow % 5;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:4];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk1 (
        .clk(clk),
        .en_a(wen && wblk == 1),
        .we_a(wen && wblk == 1),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 1),
        .addr_b(raddr),
        .rdata_b(rdata_blk[1])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk2 (
        .clk(clk),
        .en_a(wen && wblk == 2),
        .we_a(wen && wblk == 2),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 2),
        .addr_b(raddr),
        .rdata_b(rdata_blk[2])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk3 (
        .clk(clk),
        .en_a(wen && wblk == 3),
        .we_a(wen && wblk == 3),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 3),
        .addr_b(raddr),
        .rdata_b(rdata_blk[3])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk4 (
        .clk(clk),
        .en_a(wen && wblk == 4),
        .we_a(wen && wblk == 4),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 4),
        .addr_b(raddr),
        .rdata_b(rdata_blk[4])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_blur_v (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 1 physical rows over 1 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 1;
    wire [31:0] rphys = rrow % 1;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:0];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_sharp (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 1 physical rows over 1 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 1;
    wire [31:0] rphys = rrow % 1;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:0];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module imagen_top_Unsharp_m (
    input  wire clk,
    input  wire rst,
    input  wire signed [15:0] stream_in_0,
    output wire signed [15:0] stream_out_0,
    output wire frame_done
);
    reg [63:0] cycle;
    always @(posedge clk) begin
        if (rst) cycle <= 64'd0;
        else cycle <= cycle + 64'd1;
    end
    wire en_raw = (cycle >= 64'd0) && (cycle < 64'd1200);
    wire [63:0] k_raw = cycle - 64'd0;
    wire [31:0] y_raw = k_raw / 40;
    wire [31:0] x_raw = k_raw % 40;
    wire en_blur_h = (cycle >= 64'd1) && (cycle < 64'd1201);
    wire [63:0] k_blur_h = cycle - 64'd1;
    wire [31:0] y_blur_h = k_blur_h / 40;
    wire [31:0] x_blur_h = k_blur_h % 40;
    wire en_blur_v = (cycle >= 64'd162) && (cycle < 64'd1362);
    wire [63:0] k_blur_v = cycle - 64'd162;
    wire [31:0] y_blur_v = k_blur_v / 40;
    wire [31:0] x_blur_v = k_blur_v % 40;
    wire en_sharp = (cycle >= 64'd163) && (cycle < 64'd1363);
    wire [63:0] k_sharp = cycle - 64'd163;
    wire [31:0] y_sharp = k_sharp / 40;
    wire [31:0] x_sharp = k_sharp % 40;
    wire en_sharpened = (cycle >= 64'd164) && (cycle < 64'd1364);
    wire [63:0] k_sharpened = cycle - 64'd164;
    wire [31:0] y_sharpened = k_sharpened / 40;
    wire [31:0] x_sharpened = k_sharpened % 40;
    wire signed [15:0] out_raw = stream_in_0;
    wire signed [15:0] out_blur_h;
    wire signed [15:0] out_blur_v;
    wire signed [15:0] out_sharp;
    wire signed [15:0] out_sharpened;
    linebuf_raw u_lb_raw (
        .clk(clk),
        .wen(en_raw),
        .wrow(y_raw),
        .wcol(x_raw),
        .wdata(out_raw),
        .ren(1'b1),
        .rrow(y_raw),
        .rcol(x_raw),
        .rdata()
    );
    linebuf_blur_h u_lb_blur_h (
        .clk(clk),
        .wen(en_blur_h),
        .wrow(y_blur_h),
        .wcol(x_blur_h),
        .wdata(out_blur_h),
        .ren(1'b1),
        .rrow(y_blur_h),
        .rcol(x_blur_h),
        .rdata()
    );
    linebuf_blur_v u_lb_blur_v (
        .clk(clk),
        .wen(en_blur_v),
        .wrow(y_blur_v),
        .wcol(x_blur_v),
        .wdata(out_blur_v),
        .ren(1'b1),
        .rrow(y_blur_v),
        .rcol(x_blur_v),
        .rdata()
    );
    linebuf_sharp u_lb_sharp (
        .clk(clk),
        .wen(en_sharp),
        .wrow(y_sharp),
        .wcol(x_sharp),
        .wdata(out_sharp),
        .ren(1'b1),
        .rrow(y_sharp),
        .rcol(x_sharp),
        .rdata()
    );
    reg signed [15:0] sra_blur_h_0 [0:4];
    stage_blur_h u_blur_h (.clk(clk), .en(en_blur_h), .win0(sra_blur_h_0), .pixel_out(out_blur_h));
    reg signed [15:0] sra_blur_v_0 [0:4];
    stage_blur_v u_blur_v (.clk(clk), .en(en_blur_v), .win0(sra_blur_v_0), .pixel_out(out_blur_v));
    reg signed [15:0] sra_sharp_0 [0:0];
    reg signed [15:0] sra_sharp_1 [0:0];
    stage_sharp u_sharp (.clk(clk), .en(en_sharp), .win0(sra_sharp_0), .win1(sra_sharp_1), .pixel_out(out_sharp));
    reg signed [15:0] sra_sharpened_0 [0:0];
    stage_sharpened u_sharpened (.clk(clk), .en(en_sharpened), .win0(sra_sharpened_0), .pixel_out(out_sharpened));
    assign stream_out_0 = out_sharpened;
    assign frame_done = (cycle >= 64'd1364);
endmodule
